package target_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"ursa/internal/ir"
	"ursa/internal/machine"
	"ursa/internal/pipeline"
	"ursa/internal/target"
	"ursa/internal/workload"
)

// baselineMachines are the classic (pre-target-subsystem) configurations
// whose emitted code is frozen in testdata/preset_baseline.txt. The file
// was captured before the target catalog landed; this test proves the
// subsystem is purely additive — every legacy machine still compiles to
// byte-identical words under every method.
func baselineMachines() []*machine.Config {
	return []*machine.Config{
		machine.VLIW(2, 3), machine.VLIW(1, 4), machine.VLIW(2, 4), machine.VLIW(2, 8),
		machine.VLIW(4, 6), machine.VLIW(4, 8), machine.VLIW(8, 12),
		machine.Heterogeneous(2, 1, 1, 1, 6, 4), machine.Heterogeneous(2, 2, 2, 1, 8, 8),
	}
}

// renderBaseline compiles the Figure 2 example on every baseline machine ×
// method and renders the exact listing format of the committed snapshot.
func renderBaseline() string {
	f := workload.PaperExample(true)
	var sb strings.Builder
	for _, m := range baselineMachines() {
		for _, meth := range pipeline.AllMethods {
			renderCompile(&sb, f, m, meth, "")
		}
	}
	return sb.String()
}

// extendedPresets are the clustered, exposed-datapath and wide-superscalar
// presets frozen in testdata/extended_baseline.txt, and extendedKernels
// the suite kernels compiled on them beside the Figure 2 example.
var (
	extendedPresets = []string{"clus2x2x4", "clus4x2x4", "clus2x4x6", "edp2x6b1", "edp4x8b2", "suprax12"}
	extendedKernels = []string{"fir8", "hydro", "fft2", "cmul"}
)

// renderExtendedBaseline compiles the Figure 2 example and the extended
// kernels (unroll 1) on every extended preset × every method the target
// supports, in the snapshot's listing format.
func renderExtendedBaseline(t *testing.T) string {
	type input struct {
		name string
		f    *ir.Func
	}
	inputs := []input{{"paper", workload.PaperExample(true)}}
	for _, name := range extendedKernels {
		u, err := workload.KernelByName(name).Unit(1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		inputs = append(inputs, input{name, u.Func})
	}
	var sb strings.Builder
	for _, name := range extendedPresets {
		m := target.ByName(name).Config
		for _, meth := range pipeline.AllMethods {
			if target.Supports(meth.String(), m) != nil {
				continue
			}
			for _, in := range inputs {
				renderCompile(&sb, in.f, m, meth, " "+in.name)
			}
		}
	}
	return sb.String()
}

// renderCompile appends one compile's header line and word listing.
func renderCompile(sb *strings.Builder, f *ir.Func, m *machine.Config, meth pipeline.Method, label string) {
	fp, st, err := pipeline.CompileFunc(f, m, meth, pipeline.Options{})
	if err != nil {
		fmt.Fprintf(sb, "== %s %s%s ERR %v\n", m.Name, meth, label, err)
		return
	}
	fmt.Fprintf(sb, "== %s %s%s words=%d spills=%d\n", m.Name, meth, label, st.Words, st.SpillOps)
	for _, bp := range fp.Blocks {
		for ci, w := range bp.Words {
			fmt.Fprintf(sb, "  [%d]", ci)
			for _, in := range w {
				sb.WriteString(" {" + bp.Func.InstrString(in) + "}")
			}
			sb.WriteString("\n")
		}
	}
}

// TestPresetBaselineUnchanged byte-compares today's output against the
// frozen snapshot. Regenerate intentionally with
//
//	URSA_UPDATE_BASELINE=1 go test ./internal/target -run TestPresetBaselineUnchanged
func TestPresetBaselineUnchanged(t *testing.T) {
	compareBaseline(t, "testdata/preset_baseline.txt", renderBaseline())
}

// TestExtendedPresetBaselineUnchanged freezes the extended target families
// the same way: every clustered, exposed-datapath and superscalar preset ×
// supported method over the Figure 2 example and four suite kernels. The
// snapshot was captured while those families still ran the full-clone
// candidate evaluator, so it proves the shared incremental evaluator
// selects identically on them. Regenerate intentionally with
//
//	URSA_UPDATE_BASELINE=1 go test ./internal/target -run TestExtendedPresetBaselineUnchanged
func TestExtendedPresetBaselineUnchanged(t *testing.T) {
	compareBaseline(t, "testdata/extended_baseline.txt", renderExtendedBaseline(t))
}

// compareBaseline byte-compares got against the snapshot at path, or
// rewrites the snapshot when URSA_UPDATE_BASELINE is set.
func compareBaseline(t *testing.T, path, got string) {
	t.Helper()
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
	if got != string(want) {
		// Point at the first diverging line so a regression is actionable
		// without diffing the whole snapshot by hand.
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d diverges from %s:\n  frozen: %s\n  now:    %s", i+1, path, wl[i], gl[i])
			}
		}
		t.Fatalf("output length diverges from %s: %d vs %d lines", path, len(gl), len(wl))
	}
}
