package pipeline

import (
	"fmt"
	"hash/fnv"
	"os"
	"slices"
	"strings"
	"testing"

	"ursa/internal/ir"
	"ursa/internal/target"
	"ursa/internal/workload"
)

// simPinPresets are the machines whose simulated results are frozen in
// testdata/sim_pinned.txt: the paper's Figure 2 machine, a fetch-bound
// superscalar, a clustered and an exposed-datapath preset.
var simPinPresets = []string{"paper2x3", "suprax12", "clus2x2x4", "edp2x6b1"}

// memDigest hashes the state's memory in address order.
func memDigest(st *ir.State) uint64 {
	addrs := make([]ir.Addr, 0, len(st.Mem))
	for a := range st.Mem {
		addrs = append(addrs, a)
	}
	slices.SortFunc(addrs, func(a, b ir.Addr) int {
		if c := strings.Compare(a.Sym, b.Sym); c != 0 {
			return c
		}
		return int(a.Off - b.Off)
	})
	h := fnv.New64a()
	for _, a := range addrs {
		fmt.Fprintf(h, "%s[%d]=%d;", a.Sym, a.Off, st.Mem[a])
	}
	return h.Sum64()
}

// renderSimPin compiles every suite kernel at unroll 1 and 2 on every
// pinned preset through every supported heuristic method, runs it both as
// VLIW words and on the in-order superscalar model, and renders one row
// per run: cycles, issued instructions, spill operations, block
// executions and a digest of the final memory.
func renderSimPin(t *testing.T) string {
	var sb strings.Builder
	for _, preset := range simPinPresets {
		m := target.ByName(preset).Config
		for _, k := range workload.Kernels() {
			for _, unroll := range []int{1, 2} {
				u, err := k.Unit(unroll)
				if err != nil {
					t.Fatalf("%s x%d: %v", k.Name, unroll, err)
				}
				for _, method := range Methods {
					fp, _, err := CompileFunc(u.Func, m, method, Options{})
					if target.Unsupported(err) {
						continue
					}
					if err != nil {
						t.Fatalf("%s %s x%d %s: %v", preset, k.Name, unroll, method, err)
					}
					for _, mode := range []struct {
						name string
						run  func(*ir.State, int) (*FuncResult, error)
					}{{"vliw", fp.Run}, {"inorder", fp.RunInOrder}} {
						fmt.Fprintf(&sb, "%s %s x%d %s %s:", preset, k.Name, unroll, method, mode.name)
						res, err := mode.run(k.State(1), 100_000)
						if err != nil {
							fmt.Fprintf(&sb, " ERR %v\n", err)
							continue
						}
						fmt.Fprintf(&sb, " cycles=%d issued=%d spills=%d blocks=%d mem=%016x\n",
							res.Cycles, res.Issued, res.SpillOps, res.BlockXct, memDigest(res.State))
					}
				}
			}
		}
	}
	return sb.String()
}

// TestSimulatorResultsPinned byte-compares the simulated results against
// the frozen snapshot, so a change to either simulator's timing or
// semantics shows up row by row. Regenerate intentionally with
//
//	URSA_UPDATE_BASELINE=1 go test ./internal/pipeline -run TestSimulatorResultsPinned
func TestSimulatorResultsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the whole kernel suite on four presets")
	}
	const path = "testdata/sim_pinned.txt"
	got := renderSimPin(t)
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
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Errorf("line %d diverges from %s:\n  frozen: %s\n  now:    %s", i+1, path, wl[i], gl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("output length diverges from %s: %d vs %d lines", path, len(gl), len(wl))
	}
}
