package store

import (
	"fmt"
	"reflect"
	"testing"
)

// FuzzDecodeArtifact feeds arbitrary bytes to the artifact decoder, both
// bare and behind the peer protocol's integrity frame: decoding must never
// panic, and any artifact it accepts must survive Encode → DecodeArtifact
// unchanged, so a peer-served artifact re-encodes to what the owner stored.
func FuzzDecodeArtifact(f *testing.F) {
	seeds := []*Artifact{
		{Method: "ursa", Machine: "vliw4x8",
			Blocks: []ArtifactBlock{{Label: "entry", Listing: "w0: nop\n"}},
			Stats:  ArtifactStats{Words: 1, IntRegs: 2, URSAFits: true}},
		{Method: "prepass", Machine: "clus2x2x4", Blocks: []ArtifactBlock{}},
		{},
	}
	for _, a := range seeds {
		data, err := a.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(Frame(data))
	}
	f.Add([]byte(fmt.Sprintf(`{"schema":%d,"blocks":null,"stats":{"words":-1}}`, SchemaVersion)))
	f.Add([]byte(`{"schema":999}`))
	f.Add([]byte("not json"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if payload, ok := Unframe(data); ok {
			data = payload
		}
		a, err := DecodeArtifact(data)
		if err != nil {
			return
		}
		enc, err := a.Encode()
		if err != nil {
			t.Fatalf("Encode of a decoded artifact failed: %v", err)
		}
		back, err := DecodeArtifact(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v\nartifact: %s", err, enc)
		}
		if !reflect.DeepEqual(a, back) {
			t.Fatalf("round trip changed the artifact:\n got %+v\nwant %+v", back, a)
		}
	})
}
