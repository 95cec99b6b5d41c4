package pipeline

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"

	"ursa/internal/ir"
	"ursa/internal/machine"
	"ursa/internal/store"
)

// CacheKey derives the canonical compile-result cache key for compiling f
// with the given pipeline on the given machine: a hex sha256 over every
// input that can influence the emitted code or statistics, and nothing
// else. Two processes (or two peers) derive equal keys for semantically
// equal requests, which is what makes the disk and peer tiers shareable.
//
// Included: the artifact schema version (bumping it invalidates every
// stored artifact), the function's canonical textual IR, the machine's
// semantic fields (unit counts, register files, pipelining, and the full
// per-opcode latency table — not the preset name, so "vliw4x8" and an
// equivalent -width/-regs spec share entries), the pipeline method, and
// the output-affecting options (Optimize and the URSA driver's policy and
// ablation switches).
//
// Excluded: worker counts and contexts (the emitted program is
// byte-identical at every parallelism by construction) and trace sinks.
func CacheKey(f *ir.Func, m *machine.Config, method Method, opts Options) string {
	h := sha256.New()
	var buf [8]byte
	wInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	wBool := func(b bool) {
		if b {
			wInt(1)
		} else {
			wInt(0)
		}
	}
	wStr := func(s string) {
		wInt(int64(len(s)))
		h.Write([]byte(s))
	}

	wInt(int64(store.SchemaVersion))
	wStr(f.String()) // canonical textual IR, round-trippable via ir.Parse

	hashMachine(h, wInt, wBool, m)

	wInt(int64(method))
	wBool(opts.Optimize)
	wInt(int64(opts.Core.Policy))
	wBool(opts.Core.DisableSpills)
	wBool(opts.Core.DisableSequencing)

	return hex.EncodeToString(h.Sum(nil))
}

// hashMachine writes the machine's semantic fields: everything the
// pipelines read from a Config except its display name.
func hashMachine(h hash.Hash, wInt func(int64), wBool func(bool), m *machine.Config) {
	wBool(m.Homogeneous)
	wBool(m.Pipelined)
	// Canonicalize through Get over the full class range, so a hand-built
	// short (or nil) unit table keys identically to its padded equivalent.
	for cl := machine.FUClass(0); cl < machine.NumFUClasses; cl++ {
		wInt(int64(m.Units.Get(cl)))
	}
	for _, r := range m.Regs {
		wInt(int64(r))
	}
	// Target-model knobs. CopyLatency needs no separate field: it is the
	// latency table's ir.Copy entry.
	wInt(int64(m.Clusters))
	wInt(int64(m.BufferDepth))
	wInt(int64(m.IssueWidth))
	// The latency model is a function; canonicalize it as its full
	// per-opcode table so any two models with equal tables share keys.
	for op := 0; op < ir.NumOps; op++ {
		wInt(int64(m.LatencyOf(ir.Op(op))))
	}
}
