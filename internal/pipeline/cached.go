package pipeline

import (
	"context"
	"fmt"

	"ursa/internal/ir"
	"ursa/internal/machine"
	"ursa/internal/store"
)

// CachedFunc is the outcome of CompileFuncCached: either a fresh compile
// (Prog set, Tier == store.TierNone) or a previously emitted result
// served from a cache tier (Prog nil, listings in Artifact). In both
// cases Artifact carries the per-block listings byte-identically to what
// the pipeline emitted when the artifact was created.
type CachedFunc struct {
	Key      string
	Tier     store.Tier
	Artifact *store.Artifact
	// Prog is the in-memory program, available only when this process
	// compiled (a cached artifact stores listings, not executable IR —
	// requests that need to run code bypass the result cache).
	Prog *FuncProgram
}

// CompileFuncCached is CompileFunc behind the tiered compile-result
// cache: when opts.Results holds an artifact for this exact (function,
// machine, method, options, schema) fingerprint, the previously emitted
// listings and statistics are returned without running the allocator;
// otherwise the function compiles normally and the artifact is stored
// through every cache tier. Concurrent misses for one key compile once.
//
// Every cache failure mode — no cache configured, disk unwritable,
// corrupt artifact, peer down, undecodable payload — degrades to a plain
// CompileFunc. Compile errors are never cached.
func CompileFuncCached(f *ir.Func, m *machine.Config, method Method, opts Options) (*CachedFunc, *Stats, error) {
	return compileCached(func() string { return CacheKey(f, m, method, opts) }, f, m, method, opts)
}

// compileCached compiles f behind the result cache under the key that
// key derives; key runs only when opts.Results is set.
func compileCached(key func() string, f *ir.Func, m *machine.Config, method Method, opts Options) (*CachedFunc, *Stats, error) {
	var fresh *CachedFunc
	var freshStats *Stats
	compile := func(k string) error {
		fp, st, err := CompileFunc(f, m, method, opts)
		if err != nil {
			return err
		}
		fresh = &CachedFunc{Key: k, Tier: store.TierNone, Artifact: artifactOf(f, fp, st), Prog: fp}
		freshStats = st
		return nil
	}
	if opts.Results == nil {
		if err := compile(""); err != nil {
			return nil, nil, err
		}
		return fresh, freshStats, nil
	}

	k := key()
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	data, tier, err := opts.Results.GetOrComputeCtx(ctx, k, func() ([]byte, error) {
		if err := compile(k); err != nil {
			return nil, err
		}
		return fresh.Artifact.Encode()
	})
	if err != nil {
		return nil, nil, err
	}
	if fresh != nil {
		// This caller was the flight leader and compiled; hand back the
		// in-memory program alongside the artifact it stored.
		return fresh, freshStats, nil
	}
	art, derr := store.DecodeArtifact(data)
	if derr != nil {
		// The bytes were intact (integrity-checked by the store) but not
		// an artifact we understand; compile as if the cache missed.
		if err := compile(k); err != nil {
			return nil, nil, err
		}
		return fresh, freshStats, nil
	}
	return &CachedFunc{Key: k, Tier: tier, Artifact: art}, statsFromArtifact(art, method, m.Name), nil
}

// statsFromArtifact reconstructs the static pipeline statistics a warm
// hit must report identically to the cold compile that produced them.
func statsFromArtifact(a *store.Artifact, method Method, machineName string) *Stats {
	st := &Stats{
		Method:         method,
		Machine:        machineName,
		Words:          a.Stats.Words,
		SpillOps:       a.Stats.SpillOps,
		URSATransforms: a.Stats.URSATransforms,
		URSAFits:       a.Stats.URSAFits,
	}
	st.RegsUsed[ir.ClassInt] = a.Stats.IntRegs
	st.RegsUsed[ir.ClassFP] = a.Stats.FPRegs
	return st
}

// artifactOf captures a fresh compile as a storable artifact.
func artifactOf(f *ir.Func, fp *FuncProgram, st *Stats) *store.Artifact {
	a := &store.Artifact{
		Method:  st.Method.String(),
		Machine: st.Machine,
		Stats: store.ArtifactStats{
			Words:          st.Words,
			SpillOps:       st.SpillOps,
			IntRegs:        st.RegsUsed[ir.ClassInt],
			FPRegs:         st.RegsUsed[ir.ClassFP],
			URSATransforms: st.URSATransforms,
			URSAFits:       st.URSAFits,
		},
	}
	for i, prog := range fp.Blocks {
		a.Blocks = append(a.Blocks, store.ArtifactBlock{
			Label:   f.Blocks[i].Label,
			Listing: prog.String(),
		})
	}
	return a
}

// ServedBy names the tier that answered, or "compiled" when every tier
// missed and this process ran the pipeline.
func (c *CachedFunc) ServedBy() string {
	if c.Tier == store.TierNone {
		return "compiled"
	}
	return c.Tier.String()
}

// Listing renders the cached function exactly as ursac prints a fresh
// compile: each block's label line followed by its VLIW words.
func (c *CachedFunc) Listing() string {
	var out []byte
	for _, b := range c.Artifact.Blocks {
		out = append(out, fmt.Sprintf("%s:\n%s", b.Label, b.Listing)...)
	}
	return string(out)
}
