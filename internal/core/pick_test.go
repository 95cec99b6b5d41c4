package core

import (
	"math/rand"
	"runtime"
	"testing"

	"ursa/internal/dag"
	"ursa/internal/machine"
	"ursa/internal/transform"
)

func seqOutcome(note string, excess, crit, edges int, ok bool) evalOutcome {
	es := make([][2]int, edges)
	return evalOutcome{
		s:      scored{cand: &transform.Candidate{Kind: transform.RegSequence, Edges: es, Note: note}, resource: "reg.int"},
		ok:     ok,
		excess: excess,
		crit:   crit,
	}
}

func spillOutcome(note string, excess, crit int, ok bool) evalOutcome {
	return evalOutcome{
		s: scored{cand: &transform.Candidate{Kind: transform.Spill, Note: note,
			Spill: &transform.SpillSpec{Def: 0}}, resource: "reg.int"},
		ok:     ok,
		excess: excess,
		crit:   crit,
	}
}

// TestPickPlateauSpillOnly: plateau moves are restricted to spill
// candidates at or below the current excess, ranked by (excess, crit, Note).
func TestPickPlateauSpillOnly(t *testing.T) {
	cur := 3
	evals := []evalOutcome{
		seqOutcome("seq-equal", cur, 1, 2, true), // sequencing never plateaus
		spillOutcome("worse", cur+1, 1, true),    // above current excess
		spillOutcome("failed", cur, 1, false),    // failed tentative apply
		spillOutcome("slow", cur, 9, true),
		spillOutcome("fast", cur, 4, true),
	}
	best, excess, improved := pickPlateau(evals, cur)
	if !improved {
		t.Fatal("pickPlateau found no move despite eligible spills")
	}
	if best.cand.Kind != transform.Spill {
		t.Fatalf("plateau move is %s, want spill", best.cand.Kind)
	}
	if best.cand.Note != "fast" || excess != cur {
		t.Errorf("picked %q at excess %d, want %q at %d", best.cand.Note, excess, "fast", cur)
	}

	// Sequencing-only outcomes: no plateau move at all.
	if _, _, ok := pickPlateau(evals[:1], cur); ok {
		t.Error("pickPlateau accepted a sequencing candidate")
	}
}

// TestPickBestTieBreakStyles pins each style's tie-breaking order at equal
// excess reduction, and that the winner is independent of input order (the
// ranking sort is unstable; full tie-breaks make it deterministic anyway).
func TestPickBestTieBreakStyles(t *testing.T) {
	cur := 5
	evals := []evalOutcome{
		seqOutcome("big-slow", 4, 9, 4, true), // most edges, worst crit
		seqOutcome("small-fast", 4, 2, 1, true),
		spillOutcome("spill", 4, 6, true),
		seqOutcome("failed", 3, 1, 9, false), // would win, but apply failed
	}
	want := map[scoreStyle]string{
		styleDefault:    "small-fast", // min crit, seq before spill
		styleAggressive: "big-slow",   // most edges first
		styleSpillFirst: "spill",      // spill rank first
	}
	rng := rand.New(rand.NewSource(1))
	for style, wantNote := range want {
		for shuffle := 0; shuffle < 8; shuffle++ {
			perm := make([]evalOutcome, len(evals))
			copy(perm, evals)
			rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			best, excess, improved := pickBest(perm, cur, style)
			if !improved || best.cand.Note != wantNote || excess != 4 {
				t.Fatalf("style %d shuffle %d: picked %q (excess %d, improved %v), want %q",
					style, shuffle, best.cand.Note, excess, improved, wantNote)
			}
		}
	}

	// No candidate strictly below the current excess: not improved.
	if _, _, ok := pickBest(evals, 4, styleDefault); ok {
		t.Error("pickBest improved without an excess reduction")
	}
}

// plateauMachines are heterogeneous configs with a single memory unit:
// spilling trades register excess for fu.mem excess, which is what makes
// excess-preserving (plateau) moves appear in real runs.
// reduceOnce runs one reducing attempt of the style on g itself, with a
// fresh memo.
func reduceOnce(g *dag.Graph, opts Options, style scoreStyle) (*Report, error) {
	r, err := newRun(g, opts)
	if err != nil {
		return nil, err
	}
	return r.reduce(g, style, iterBound(g))
}

func plateauMachines() []*machine.Config {
	return []*machine.Config{
		machine.Heterogeneous(2, 1, 1, 1, 2, 8),
		machine.Heterogeneous(3, 1, 1, 1, 3, 8),
	}
}

// TestPlateauMovesAreSpillsAndBounded sweeps workloads known to hit the
// plateau path and checks the loop's invariants: every excess-preserving
// committed move is a spill, and the per-phase budget caps them at 4.
func TestPlateauMovesAreSpillsAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sawPlateau := false
	for trial := 0; trial < 8; trial++ {
		f := randomBlock(rng, 10+rng.Intn(20))
		for _, m := range plateauMachines() {
			for _, noSeq := range []bool{false, true} {
				// Private Func per run: committed spills extend the name
				// table, which would shift later runs' spill-reload names.
				cl := f.Clone()
				g, err := dag.Build(cl.Blocks[0])
				if err != nil {
					t.Fatal(err)
				}
				rep, err := reduceOnce(g, Options{Machine: m, DisableSequencing: noSeq}, styleDefault)
				if err != nil {
					t.Fatal(err)
				}
				plateau := 0
				for _, a := range rep.Applied {
					if a.ExcessAfter >= a.ExcessBefore {
						plateau++
						if a.Kind != transform.Spill {
							t.Errorf("trial %d %s: plateau move is %s, want spill", trial, m.Name, a.Kind)
						}
					}
				}
				// Integrated policy runs a single phase, so the budget of 4
				// bounds the whole run.
				if plateau > 4 {
					t.Errorf("trial %d %s: %d plateau moves exceed the budget of 4", trial, m.Name, plateau)
				}
				sawPlateau = sawPlateau || plateau > 0
			}
		}
	}
	if !sawPlateau {
		t.Fatal("sweep never exercised the plateau path; workload needs retuning")
	}
}

// TestStyleDeterminismAcrossWorkers: for every tie-break style, the full
// applied-transformation sequence is identical whether candidates are
// evaluated inline or across 4 or 8 workers — the fan-out changes cost
// only, never choice. The
// evaluator caps its pool at GOMAXPROCS, so the test forces it to 4: on a
// one-CPU host the -j 4/-j 8 variants would otherwise evaluate inline. Run
// under -race this also sweeps the candidate fan-out — per-worker scratch
// arenas and the shared iteration state — for data races.
func TestStyleDeterminismAcrossWorkers(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	rng := rand.New(rand.NewSource(3))
	machines := append(plateauMachines(), machine.VLIW(2, 3), machine.VLIW(1, 4))
	for trial := 0; trial < 6; trial++ {
		f := randomBlock(rng, 10+rng.Intn(16))
		for _, m := range machines {
			for _, style := range []scoreStyle{styleDefault, styleAggressive, styleSpillFirst} {
				variants := []Options{
					{Machine: m, Workers: 1},
					{Machine: m, Workers: 4},
					{Machine: m, Workers: 8},
				}
				var ref *Report
				for vi, opts := range variants {
					// Private Func per variant (see above): without this,
					// spill-reload register names drift across variants and
					// mask the real comparison.
					cl := f.Clone()
					g, err := dag.Build(cl.Blocks[0])
					if err != nil {
						t.Fatal(err)
					}
					rep, err := reduceOnce(g, opts, style)
					if err != nil {
						t.Fatalf("trial %d %s style %d variant %d: %v", trial, m.Name, style, vi, err)
					}
					if vi == 0 {
						ref = rep
						continue
					}
					if diff := reportsEqual(ref, rep); diff != "" {
						t.Errorf("trial %d %s style %d variant %d: %s", trial, m.Name, style, vi, diff)
					}
				}
			}
		}
	}
}
