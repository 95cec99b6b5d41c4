package transform_test

import (
	"os"
	"slices"
	"testing"

	"ursa/internal/check"
	"ursa/internal/dag"
	"ursa/internal/ir"
	"ursa/internal/order"
	"ursa/internal/target"
	"ursa/internal/transform"
)

// clusteredGraph loads a committed clustered fuzz case, partitions its
// block over the machine's clusters, and builds the dependence DAG the
// reduction loop sees.
func clusteredGraph(t *testing.T, name string) *dag.Graph {
	t.Helper()
	data, err := os.ReadFile("../check/testdata/fuzz/" + name + ".ursafuzz")
	if err != nil {
		t.Fatal(err)
	}
	c, err := check.ParseCase(string(data))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	b := c.Block()
	if _, err := target.Clusterize(b, c.Mach.Config()); err != nil {
		t.Fatalf("%s: Clusterize: %v", name, err)
	}
	g, err := dag.Build(b)
	if err != nil {
		t.Fatalf("%s: Build: %v", name, err)
	}
	return g
}

// samePairs reports whether a and b are over one ground set and hold the
// same pairs.
func samePairs(a, b *order.Relation) bool {
	if a.Size() != b.Size() {
		return false
	}
	for i := 0; i < a.Size(); i++ {
		if !a.Row(i).SubsetOf(b.Row(i)) || !b.Row(i).SubsetOf(a.Row(i)) {
			return false
		}
	}
	return true
}

// adjacency snapshots every node's successor and predecessor sets (sorted:
// Revert may re-add a removed edge at a different list position).
func adjacency(g *dag.Graph) (succ, pred [][]int) {
	for n := range g.Nodes {
		s, p := slices.Clone(g.Succs(n)), slices.Clone(g.Preds(n))
		slices.Sort(s)
		slices.Sort(p)
		succ, pred = append(succ, s), append(pred, p)
	}
	return succ, pred
}

// TestCopySpillApplyLogRevert: on every inter-cluster copy of the committed
// clustered cases, Apply through one reused log yields the same graph as
// Apply on a clone, the closure Apply keeps is the result's, and Revert
// restores the graph, the copy instruction's Op/Args/Sym, and every node's
// successor and predecessor set.
func TestCopySpillApplyLogRevert(t *testing.T) {
	for _, name := range []string{"clustered-copy-cheaper-than-spill", "clustered-join-copy"} {
		g := clusteredGraph(t, name)
		var log transform.UndoLog
		copies := 0
		for n, nd := range g.Nodes {
			in := nd.Instr
			if in == nil || !in.IsCopy() {
				continue
			}
			copies++
			cand := &transform.Candidate{Kind: transform.CopySpill, CopySpill: &transform.CopySpillSpec{Copy: n}}

			ref := g.Clone()
			ref.Func = g.Func.Clone()
			if err := cand.Apply(ref, ref.Reach(), new(transform.UndoLog)); err != nil {
				t.Fatalf("%s node %d: Apply: %v", name, n, err)
			}

			before := g.Clone()
			op, args, sym := in.Op, slices.Clone(in.Args), in.Sym
			succ, pred := adjacency(g)
			reach := g.Reach()
			if err := cand.Apply(g, reach, &log); err != nil {
				t.Fatalf("%s node %d: Apply: %v", name, n, err)
			}
			if !samePairs(reach, ref.Reach()) {
				t.Errorf("%s node %d: the closure Apply kept differs from Reach of the result", name, n)
			}
			if in.Op != ir.SpillLoad {
				t.Errorf("%s node %d: copy not rewritten into a reload (op %s)", name, n, in.Op)
			}
			if err := g.Diff(ref); err != nil {
				t.Errorf("%s node %d: Apply on the graph and on a clone produced different graphs: %v", name, n, err)
			}
			log.Revert()
			if err := g.Diff(before); err != nil {
				t.Errorf("%s node %d: Revert did not restore the graph: %v", name, n, err)
			}
			if in.Op != op || !slices.Equal(in.Args, args) || in.Sym != sym {
				t.Errorf("%s node %d: Revert left %s %v %q, want %s %v %q",
					name, n, in.Op, in.Args, in.Sym, op, args, sym)
			}
			gotSucc, gotPred := adjacency(g)
			for v := range succ {
				if !slices.Equal(gotSucc[v], succ[v]) || !slices.Equal(gotPred[v], pred[v]) {
					t.Errorf("%s node %d: Revert changed node %d's edges: succ %v pred %v, want %v %v",
						name, n, v, gotSucc[v], gotPred[v], succ[v], pred[v])
				}
			}
		}
		if copies == 0 {
			t.Errorf("%s: partition produced no inter-cluster copy", name)
		}
	}
}
