package store

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"
)

// DefaultPeerTimeout bounds one peer round-trip. Short by design: a slow
// peer must cost less than the compile it would have saved, so past the
// deadline the caller computes locally.
const DefaultPeerTimeout = 2 * time.Second

// maxPeerBody caps how much a peer response is allowed to carry.
const maxPeerBody = 64 << 20

// PeerStats is a snapshot of a peer client's activity.
type PeerStats struct {
	Base   string `json:"base"`
	Gets   uint64 `json:"gets"`
	Hits   uint64 `json:"hits"`
	Puts   uint64 `json:"puts"`
	Errors uint64 `json:"errors"`
}

// PeerClient speaks ursad's GET/PUT /v1/cache/{key} protocol against one
// peer daemon. Every failure — refused connection, timeout, non-2xx,
// oversized body — is a miss plus a counter; the client never returns an
// error to the compile path.
type PeerClient struct {
	base string
	hc   *http.Client

	gets   atomic.Uint64
	hits   atomic.Uint64
	puts   atomic.Uint64
	errors atomic.Uint64
}

// NewPeer returns a client for the peer daemon at base (e.g.
// "http://ursad-2:8347"). timeout <= 0 means DefaultPeerTimeout.
func NewPeer(base string, timeout time.Duration) (*PeerClient, error) {
	base = strings.TrimRight(base, "/")
	u, err := url.Parse(base)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("store: peer URL %q: need scheme://host", base)
	}
	if timeout <= 0 {
		timeout = DefaultPeerTimeout
	}
	return &PeerClient{base: base, hc: &http.Client{Timeout: timeout}}, nil
}

func (p *PeerClient) url(key string) string { return p.base + "/v1/cache/" + key }

// Get fetches the artifact under key from the peer with the client's
// configured timeout as the only deadline.
func (p *PeerClient) Get(key string) ([]byte, bool) {
	return p.GetCtx(context.Background(), key)
}

// GetCtx fetches the artifact under key from the peer. The raw bytes
// travel with their integrity hash (the store's file format), so a
// corrupted or truncated transfer is detected here and counted as an
// error, never handed to the pipeline. The request runs under ctx in
// addition to the client timeout, so a caller racing the peer against
// another source (the router's hedged fallback) can cancel the losing
// leg instead of letting it run to the deadline.
func (p *PeerClient) GetCtx(ctx context.Context, key string) ([]byte, bool) {
	if p == nil || !ValidKey(key) {
		return nil, false
	}
	p.gets.Add(1)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url(key), nil)
	if err != nil {
		p.errors.Add(1)
		return nil, false
	}
	resp, err := p.hc.Do(req)
	if err != nil {
		p.errors.Add(1)
		return nil, false
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusNotFound:
		return nil, false
	case resp.StatusCode != http.StatusOK:
		p.errors.Add(1)
		return nil, false
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerBody+1))
	if err != nil || len(raw) > maxPeerBody {
		p.errors.Add(1)
		return nil, false
	}
	payload, ok := Unframe(raw)
	if !ok {
		p.errors.Add(1)
		return nil, false
	}
	p.hits.Add(1)
	return payload, true
}

// Put pushes the artifact to the peer, best-effort: failures are counted
// and otherwise ignored. The payload is framed with its sha256 (the same
// format Get expects), so the receiving daemon can verify before storing.
func (p *PeerClient) Put(key string, data []byte) {
	p.PutCtx(context.Background(), key, data)
}

// PutCtx is Put under a caller context (plus the client timeout).
func (p *PeerClient) PutCtx(ctx context.Context, key string, data []byte) {
	if p == nil || !ValidKey(key) {
		return
	}
	p.puts.Add(1)
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, p.url(key), bytes.NewReader(Frame(data)))
	if err != nil {
		p.errors.Add(1)
		return
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := p.hc.Do(req)
	if err != nil {
		p.errors.Add(1)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		p.errors.Add(1)
	}
}

// Stats returns a snapshot of the client's counters.
func (p *PeerClient) Stats() PeerStats {
	if p == nil {
		return PeerStats{}
	}
	return PeerStats{
		Base:   p.base,
		Gets:   p.gets.Load(),
		Hits:   p.hits.Load(),
		Puts:   p.puts.Load(),
		Errors: p.errors.Load(),
	}
}
