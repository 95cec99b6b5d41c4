package core_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"ursa/internal/check"
	"ursa/internal/core"
	"ursa/internal/dag"
	"ursa/internal/ir"
	"ursa/internal/machine"
	"ursa/internal/target"
	"ursa/internal/workload"
)

// equivBlock is one block of the equivalence sweep: build returns a fresh
// graph of it on a private copy of its function, clusterized on clustered
// machines as the pipeline does.
type equivBlock struct {
	name  string
	m     *machine.Config
	size  int // instructions
	build func() (*dag.Graph, error)
}

func blockOf(name string, f *ir.Func, label string, m *machine.Config) equivBlock {
	return equivBlock{name, m, len(f.Block(label).Instrs), func() (*dag.Graph, error) {
		b := f.Clone().Block(label)
		if m.Clusters > 1 {
			if _, err := target.Clusterize(b, m); err != nil {
				return nil, err
			}
		}
		return dag.Build(b)
	}}
}

// shape renders a block with its registers numbered in order of first
// appearance, so blocks that differ only in register names (the unrolled
// loops' copies of one body) render alike.
func shape(b *ir.Block) string {
	ids := map[ir.VReg]int{}
	reg := func(v ir.VReg) string {
		if v == ir.NoReg {
			return "_"
		}
		if _, ok := ids[v]; !ok {
			ids[v] = len(ids)
		}
		return fmt.Sprintf("%d%s", ids[v], b.Func.ClassOf(v))
	}
	var sb strings.Builder
	for _, in := range b.Instrs {
		fmt.Fprintf(&sb, "%s=%s %d %g %s[%s+%d]", reg(in.Dst), in.Op, in.Imm, in.FImm, in.Sym, reg(in.Index), in.Off)
		for _, a := range in.Args {
			sb.WriteString(" " + reg(a))
		}
		sb.WriteString(";")
	}
	return sb.String()
}

// equivBlocks returns the fuzz corpus's blocks on their machines and the
// blocks of the suite kernels at unroll 1, 2 and 4 on vliw2x4, paper2x3,
// clus2x2x4 and edp2x6b1, one block per shape. Clustered blocks with
// register live-ins are left out, as the pipeline rejects them. Under the
// race detector, which slows the reduction loop tenfold, the kernels run
// at unroll 1 only.
func equivBlocks(t *testing.T) []equivBlock {
	unrolls := []int{1, 2, 4}
	if core.RaceEnabled {
		unrolls = unrolls[:1]
	}
	corpus, err := check.LoadCorpus("../check/testdata/fuzz")
	if err != nil {
		t.Fatal(err)
	}
	var out []equivBlock
	names := make([]string, 0, len(corpus))
	for name := range corpus {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		c := corpus[name]
		out = append(out, blockOf(name, c.Func, c.Block().Label, c.Mach.Config()))
	}
	for _, preset := range []string{"vliw2x4", "paper2x3", "clus2x2x4", "edp2x6b1"} {
		m := target.ByName(preset).Config
		seen := map[string]bool{}
		for _, k := range workload.Kernels() {
			for _, u := range unrolls {
				unit, err := k.Unit(u)
				if err != nil {
					t.Fatal(err)
				}
				for _, b := range unit.Func.Blocks {
					if m.Clusters > 1 && len(ir.LiveIns(b)) > 0 || seen[shape(b)] {
						continue
					}
					seen[shape(b)] = true
					out = append(out, blockOf(fmt.Sprintf("%s/%s-x%d/%s", preset, k.Name, u, b.Label), unit.Func, b.Label, m))
				}
			}
		}
	}
	return out
}

// everyStyleMax is the largest block, in instructions, whose every
// attempt TestMemoMatchesScoringEveryState also compares with all styles
// forced; larger blocks take seconds per forced sweep.
const everyStyleMax = 48

// TestMemoMatchesScoringEveryState: Run, whose attempts share scored
// states, returns the report of the reference that gives every attempt an
// empty memo and so scores every state it reaches, and leaves the caller's
// function with the same registers, under every policy. On blocks of up
// to everyStyleMax instructions it also forces every style, with and
// without a shared memo, and compares each attempt's report, so a replay
// is exact under every tie-break whether or not Run reaches it.
func TestMemoMatchesScoringEveryState(t *testing.T) {
	compared, forced := 0, 0
	for _, blk := range equivBlocks(t) {
		for _, policy := range []core.Policy{core.Integrated, core.RegistersFirst, core.FUsFirst} {
			name := blk.name + "/" + policy.String()
			opts := core.Options{Machine: blk.m, Policy: policy}
			graph := func() *dag.Graph {
				g, err := blk.build()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				return g
			}

			g, ref := graph(), graph()
			got, gotErr := core.Run(g, opts)
			want, _, wantErr := core.RunAttempts(ref, opts, true, false)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: Run error %v, reference %v", name, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if d := core.ReportDiff(want, got); d != "" {
				t.Fatalf("%s: Run vs reference: %s", name, d)
			}
			if d := core.RegsDiff(ref.Func, g.Func); d != "" {
				t.Fatalf("%s: Run's function: %s", name, d)
			}
			compared++

			if blk.size > everyStyleMax {
				continue
			}
			_, gotAll, err := core.RunAttempts(graph(), opts, false, true)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			_, wantAll, err := core.RunAttempts(graph(), opts, true, true)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i := range wantAll {
				if d := core.ReportDiff(wantAll[i], gotAll[i]); d != "" {
					t.Fatalf("%s: attempt %d vs reference: %s", name, i, d)
				}
			}
			forced++
		}
	}
	t.Logf("%d blocks × policies compared, %d of them with every style forced", compared, forced)
}
