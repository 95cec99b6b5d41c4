package dag

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sort"

	"ursa/internal/ir"
)

// Fingerprint returns a canonical content hash of the graph: its nodes
// (instruction opcode, operands with their register classes, immediates,
// memory symbol/offset), its edge set, and its live-out registers. Two
// graphs with equal fingerprints have identical dependence structure and
// identical resource semantics, so every measurement over them — reuse
// relations, chain decompositions, widths — is identical too. Edge kinds
// are deliberately excluded: data, memory and sequencing edges constrain
// scheduling the same way, so they do not affect measurement.
//
// The delta oracle (internal/check) compares fingerprints taken before
// and after a refused or reverted Apply to prove the graph was left
// unchanged. It is recomputed on every call — the graph is mutable and
// memoizing would need invalidation hooks in every transform.
func (g *Graph) Fingerprint() [sha256.Size]byte {
	h := sha256.New()
	var buf [8]byte
	wInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	wStr := func(s string) {
		wInt(int64(len(s)))
		h.Write([]byte(s))
	}
	wReg := func(v ir.VReg) {
		wInt(int64(v))
		wInt(int64(g.Func.ClassOf(v)))
	}

	wInt(int64(len(g.Nodes)))
	wInt(int64(g.Root))
	wInt(int64(g.Leaf))
	for _, n := range g.Nodes {
		if n.Instr == nil {
			wInt(-1)
			continue
		}
		in := n.Instr
		wInt(int64(in.Op))
		wReg(in.Dst)
		wInt(int64(len(in.Args)))
		for _, a := range in.Args {
			wReg(a)
		}
		wInt(in.Imm)
		wInt(int64(math.Float64bits(in.FImm)))
		wStr(in.Sym)
		wInt(in.Off)
		wReg(in.Index)
		wInt(int64(in.Cluster))
	}

	// Edges in (source, target) order. Adjacency rows keep insertion
	// order, so each row is sorted before it is hashed.
	edges := 0
	for _, ss := range g.succ {
		edges += len(ss)
	}
	wInt(int64(edges))
	var row []int
	for a, ss := range g.succ {
		row = append(row[:0], ss...)
		sort.Ints(row)
		for _, b := range row {
			wInt(int64(a))
			wInt(int64(b))
		}
	}

	live := make([]ir.VReg, 0, len(g.LiveOut))
	for v, ok := range g.LiveOut {
		if ok {
			live = append(live, v)
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
	wInt(int64(len(live)))
	for _, v := range live {
		wReg(v)
	}

	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}
