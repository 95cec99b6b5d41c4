package core

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"ursa/internal/dag"
	"ursa/internal/ir"
	"ursa/internal/target"
	"ursa/internal/workload"
)

// pinnedPresets and pinnedKernels span the candidate lists frozen in
// testdata/candidates_pinned.txt: one classic and one clustered preset,
// over the Figure 2 example and every block of two suite kernels at
// unroll 2.
var (
	pinnedPresets = []string{"vliw2x4", "clus2x2x4"}
	pinnedKernels = []string{"hydro", "fft2"}
)

// renderCandidates lists, for every pinned preset and block, every
// candidate the generators emit for the innermost and outermost excess
// sets of the unreduced graph — kind, sorted edges, spill payload and
// note — with the score the evaluator gives it.
func renderCandidates(t *testing.T) string {
	type input struct {
		name string
		f    *ir.Func
	}
	inputs := []input{{"paper", workload.PaperExample(true)}}
	for _, name := range pinnedKernels {
		u, err := workload.KernelByName(name).Unit(2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		inputs = append(inputs, input{name, u.Func})
	}
	var sb strings.Builder
	for _, preset := range pinnedPresets {
		m := target.ByName(preset).Config
		for _, in := range inputs {
			for _, b := range in.f.Blocks {
				nf := in.f.Clone()
				nb := nf.Block(b.Label)
				fmt.Fprintf(&sb, "== %s %s %s\n", preset, in.name, b.Label)
				if _, err := target.Clusterize(nb, m); err != nil {
					fmt.Fprintf(&sb, "  clusterize: %v\n", err)
					continue
				}
				g, err := dag.Build(nb)
				if err != nil {
					t.Fatalf("%s %s %s: %v", preset, in.name, b.Label, err)
				}
				scores, err := ScoreCandidates(g, Options{Machine: m, Workers: 1})
				if err != nil {
					t.Fatalf("%s %s %s: %v", preset, in.name, b.Label, err)
				}
				for _, s := range scores {
					c := s.Candidate
					edges := slices.Clone(c.Edges)
					slices.SortFunc(edges, func(a, b [2]int) int {
						if a[0] != b[0] {
							return a[0] - b[0]
						}
						return a[1] - b[1]
					})
					fmt.Fprintf(&sb, "  %s %s edges=%v", s.Resource, c.Kind, edges)
					if sp := c.Spill; sp != nil {
						fmt.Fprintf(&sb, " spill=%s@%d barrier=%v preroots=%v",
							nf.NameOf(sp.Reg), sp.Def, sp.Barrier, sp.PreRoots)
					}
					if sp := c.CopySpill; sp != nil {
						fmt.Fprintf(&sb, " copy=%d", sp.Copy)
					}
					fmt.Fprintf(&sb, " %q ok=%v excess=%d crit=%d\n", c.Note, s.OK, s.Excess, s.Crit)
				}
			}
		}
	}
	return sb.String()
}

// TestCandidatesPinned byte-compares the candidate lists against the
// frozen snapshot: a change to how the generators or the evaluator answer
// reachability must not change which candidates exist or how they score.
// Regenerate intentionally with
//
//	URSA_UPDATE_BASELINE=1 go test ./internal/core -run TestCandidatesPinned
func TestCandidatesPinned(t *testing.T) {
	const path = "testdata/candidates_pinned.txt"
	got := renderCandidates(t)
	if os.Getenv("URSA_UPDATE_BASELINE") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d diverges from %s:\n  frozen: %s\n  now:    %s", i+1, path, wl[i], gl[i])
		}
	}
	t.Fatalf("output length diverges from %s: %d vs %d lines", path, len(gl), len(wl))
}
