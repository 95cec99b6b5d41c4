// Package modsched software-pipelines counted loops by iterative modulo
// scheduling with URSA in the acceptance loop. For each recognized loop it
// derives the loop-carried dependence graph, computes the classic lower
// bounds MII = max(resMII, recMII), and searches initiation intervals
// upward from MII. A candidate II must pass two gates: Rau's iterative
// modulo scheduler must place the steady state in an II-cycle modulo
// reservation table, and URSA's width measurement of the flattened kernel
// DAG (internal/core over internal/measure + internal/reuse, spills
// disabled) must prove the kernel's register demand fits every register
// class after sequencing-only transformations — the paper's unified
// resource view deciding schedulability instead of resMII/recMII alone.
// The modulo-variable-expansion blocking factor starts at the schedule's
// stage count and doubles while it keeps paying, bounded by Options.
//
// See docs/LOOPS.md for the full derivation and the adaptation of
// kernel/prologue/epilogue to the block-drain execution model.
package modsched

import (
	"fmt"

	"ursa/internal/core"
	"ursa/internal/dag"
	"ursa/internal/ir"
	"ursa/internal/machine"
	"ursa/internal/target"
)

// Options bound the II and blocking-factor search.
type Options struct {
	// MaxUnroll caps the modulo-variable-expansion blocking factor B
	// (default 8).
	MaxUnroll int
	// MaxIISlack is how far above MII the candidate II scan goes before
	// giving up (default 32).
	MaxIISlack int
	// MaxKernelOps caps the flattened kernel size in template copies ×
	// template length (default 192): URSA's measurement cost grows
	// superlinearly with DAG size, and kernels past a couple hundred ops
	// stop improving cycles/iteration before they stop costing compile
	// time.
	MaxKernelOps int
}

func (o Options) withDefaults() Options {
	if o.MaxUnroll <= 0 {
		o.MaxUnroll = 8
	}
	if o.MaxIISlack <= 0 {
		o.MaxIISlack = 32
	}
	if o.MaxKernelOps <= 0 {
		o.MaxKernelOps = 192
	}
	return o
}

// LoopReport describes how one loop was pipelined.
type LoopReport struct {
	HeadLabel   string `json:"head"`
	Ops         int    `json:"ops"`     // steady-state ops per iteration (DDG nodes)
	ResMII      int    `json:"res_mii"` // resource-constrained lower bound
	RecMII      int    `json:"rec_mii"` // recurrence-constrained lower bound
	MII         int    `json:"mii"`     // max(ResMII, RecMII)
	II          int    `json:"ii"`      // accepted modulo-schedule initiation interval
	Stages      int    `json:"stages"`  // pipeline depth of the accepted schedule
	Unroll      int    `json:"unroll"`  // MVE blocking factor B
	KernelWords int    `json:"kernel_words"`
	// AchievedII is the steady-state cycles per source iteration,
	// ceil(KernelWords / Unroll). The acceptance invariant is
	// AchievedII ≥ MII.
	AchievedII  int    `json:"achieved_ii"`
	KernelLabel string `json:"kernel_label"`
}

// Result is the outcome of pipelining a function.
type Result struct {
	Func  *ir.Func // pipelined function: guard/kernel/remainder emitted
	Loops []LoopReport
}

// Primary returns the first pipelined loop's report (every Result has at
// least one).
func (r *Result) Primary() *LoopReport { return &r.Loops[0] }

// Pipeline software-pipelines every canonical counted loop in f for
// machine m and returns the transformed function (f itself is not
// modified). It fails with ErrNoLoop when nothing is recognizable and
// with a descriptive error when no loop admits a fitting kernel.
func Pipeline(f *ir.Func, m *machine.Config, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if err := m.Validate(); err != nil {
		return nil, err
	}
	// The IMS reservation table and the MII bounds model per-class unit
	// counts only: they know nothing of per-cluster register files,
	// inter-cluster copies, or output-buffer retirement, so a kernel
	// accepted here could be illegal on those targets.
	if m.Clusters > 1 || m.BufferDepth > 0 {
		return nil, fmt.Errorf("%w: loop pipelining on %s (IMS does not model clustered register files or output buffers)",
			target.ErrUnsupported, m.Name)
	}
	out := f.Clone()
	loops, err := Recognize(out)
	if err != nil {
		return nil, err
	}
	res := &Result{Func: out}
	// Transform back-to-front so earlier block indices stay valid while
	// splicing (each expansion grows the layout by two blocks).
	for li := len(loops) - 1; li >= 0; li-- {
		rep, err := pipelineLoop(out, loops[li], m, opts)
		if err != nil {
			return nil, fmt.Errorf("loop %s: %w", loops[li].Head.Label, err)
		}
		res.Loops = append(res.Loops, *rep)
	}
	// Reverse into layout order.
	for i, j := 0, len(res.Loops)-1; i < j; i, j = i+1, j-1 {
		res.Loops[i], res.Loops[j] = res.Loops[j], res.Loops[i]
	}
	if err := ir.Verify(out); err != nil {
		return nil, fmt.Errorf("modsched: emitted function invalid: %w", err)
	}
	return res, nil
}

// pipelineLoop searches (II, B) for one loop and rewrites f in place with
// the winner.
func pipelineLoop(f *ir.Func, l *Loop, m *machine.Config, opts Options) (*LoopReport, error) {
	d := buildDDG(l, m)
	rMII, cMII := resMII(d, m), recMII(d, m)
	mii := rMII
	if cMII > mii {
		mii = cMII
	}
	tmplLen := len(l.Template())
	if tmplLen == 0 {
		return nil, fmt.Errorf("empty loop body")
	}

	type cand struct {
		B, words int
	}
	for ii := mii; ii <= mii+opts.MaxIISlack; ii++ {
		sc := ims(d, m, ii)
		if sc == nil {
			continue
		}
		// Candidate blocking factors: the stage count breaks every
		// cross-iteration register overwrite (each live range gets a
		// fresh name per replica), then doubling while the amortized
		// per-iteration cost keeps falling; once a candidate stops
		// improving, larger kernels only raise register pressure, so the
		// doubling stops there.
		var best *cand
		for B := max(sc.stages, 1); B <= opts.MaxUnroll && B*tmplLen <= opts.MaxKernelOps; B *= 2 {
			words, ok := evalCandidate(f, l, B, m)
			if ok && (best == nil || float64(words)/float64(B) < float64(best.words)/float64(best.B)) {
				best = &cand{B, words}
			} else if best != nil {
				break
			}
		}
		if best == nil {
			continue
		}
		em, err := expandLoop(f, l, best.B)
		if err != nil {
			return nil, err
		}
		achieved := (best.words + best.B - 1) / best.B
		return &LoopReport{
			HeadLabel:   em.Guard,
			Ops:         len(d.nodes),
			ResMII:      rMII,
			RecMII:      cMII,
			MII:         mii,
			II:          ii,
			Stages:      sc.stages,
			Unroll:      best.B,
			KernelWords: best.words,
			AchievedII:  achieved,
			KernelLabel: em.Kernel,
		}, nil
	}
	return nil, fmt.Errorf("no initiation interval in [%d,%d] admits a register-fitting kernel on %s",
		mii, mii+opts.MaxIISlack, m.Name)
}

// evalCandidate builds the blocked kernel at factor B on a scratch clone
// and asks URSA whether it fits. core.Run measures the kernel's per-class
// widths (internal/measure over internal/reuse chains) and applies
// sequencing transformations — never spills — to shrink them; the
// candidate is accepted when the resulting schedule is spill-free and its
// per-class register usage fits the machine, i.e. when URSA's sequencing
// alone absorbed the kernel's pressure. (The worst-case measured width may
// still exceed the file: that is the same operational criterion —
// Report.ScheduleClean — the straight-line pipeline ships under.) Returns
// the kernel's static word count on success.
func evalCandidate(f *ir.Func, l *Loop, B int, m *machine.Config) (words int, ok bool) {
	scratch := f.Clone()
	loops, err := Recognize(scratch)
	if err != nil {
		return 0, false
	}
	var sl *Loop
	for _, c := range loops {
		if c.Head.Label == l.Head.Label {
			sl = c
			break
		}
	}
	if sl == nil {
		return 0, false
	}
	em, err := expandLoop(scratch, sl, B)
	if err != nil {
		return 0, false
	}
	kb := scratch.Block(em.Kernel)
	g, err := dag.Build(kb)
	if err != nil {
		return 0, false
	}
	rep, err := core.Run(g, core.Options{Machine: m, DisableSpills: true})
	if err != nil || rep.Program == nil || rep.Program.Spills > 0 {
		return 0, false
	}
	prog := rep.Program
	for c, used := range prog.RegsUsed {
		if used > m.Regs[c] {
			return 0, false
		}
	}
	return len(prog.Words), true
}
