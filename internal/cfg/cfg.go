// Package cfg builds the control-flow graph over a function's basic blocks
// and collects execution profiles, the inputs trace selection needs
// (paper §2, [Fis81]).
package cfg

import (
	"fmt"
	"sort"

	"ursa/internal/ir"
)

// Graph is a function's control-flow graph. Block indices follow the
// function's layout order; fall-through edges go to the next block.
type Graph struct {
	Func   *ir.Func
	Blocks []*ir.Block
	succ   [][]int
	pred   [][]int
	index  map[string]int
}

// Build derives the CFG from branch targets and layout fall-through.
func Build(f *ir.Func) (*Graph, error) {
	g := &Graph{
		Func:   f,
		Blocks: f.Blocks,
		succ:   make([][]int, len(f.Blocks)),
		pred:   make([][]int, len(f.Blocks)),
		index:  make(map[string]int, len(f.Blocks)),
	}
	for i, b := range f.Blocks {
		g.index[b.Label] = i
	}
	addEdge := func(a, b int) {
		g.succ[a] = append(g.succ[a], b)
		g.pred[b] = append(g.pred[b], a)
	}
	for i, b := range f.Blocks {
		term := terminator(b)
		switch {
		case term == nil:
			if i+1 < len(f.Blocks) {
				addEdge(i, i+1)
			}
		case term.Op == ir.Br:
			t, ok := g.index[term.Sym]
			if !ok {
				return nil, fmt.Errorf("cfg: unknown target %q", term.Sym)
			}
			addEdge(i, t)
		case term.Op == ir.BrTrue || term.Op == ir.BrFalse:
			t, ok := g.index[term.Sym]
			if !ok {
				return nil, fmt.Errorf("cfg: unknown target %q", term.Sym)
			}
			addEdge(i, t)
			if i+1 < len(f.Blocks) {
				addEdge(i, i+1)
			}
		case term.Op == ir.Ret:
			// no successors
		}
	}
	return g, nil
}

func terminator(b *ir.Block) *ir.Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	if last := b.Instrs[len(b.Instrs)-1]; last.IsBranch() {
		return last
	}
	return nil
}

// Index returns the block index for a label, or -1.
func (g *Graph) Index(label string) int {
	if i, ok := g.index[label]; ok {
		return i
	}
	return -1
}

// Succs returns the successor indices of block i.
func (g *Graph) Succs(i int) []int { return g.succ[i] }

// Preds returns the predecessor indices of block i.
func (g *Graph) Preds(i int) []int { return g.pred[i] }

// Profile holds execution counts gathered by a profiling interpretation.
type Profile struct {
	// Block counts executions per block index.
	Block []int64
	// Edge counts taken transitions between block indices.
	Edge map[[2]int]int64
}

// EdgeCount returns the recorded count for the edge a -> b.
func (p *Profile) EdgeCount(a, b int) int64 { return p.Edge[[2]int{a, b}] }

// ProfileRun interprets the function from its entry against a copy of init,
// recording block and edge counts. maxSteps bounds total instructions.
func ProfileRun(g *Graph, init *ir.State, maxSteps int) (*Profile, error) {
	f := g.Func
	if len(g.Blocks) == 0 {
		return &Profile{Edge: map[[2]int]int64{}}, nil
	}
	st := init.Clone()
	prof := &Profile{Block: make([]int64, len(g.Blocks)), Edge: map[[2]int]int64{}}
	cur := 0
	steps := 0
	for {
		prof.Block[cur]++
		next := -1
		exited := false
		for _, in := range g.Blocks[cur].Instrs {
			if steps++; steps > maxSteps {
				return nil, ir.ErrStepLimit
			}
			switch in.Op {
			case ir.Br, ir.BrTrue, ir.BrFalse:
				if st.Taken(in) {
					next = g.Index(in.Sym)
				}
			case ir.Ret:
				exited = true
			default:
				st.Exec(f, in)
			}
			if next >= 0 || exited {
				break
			}
		}
		if exited {
			return prof, nil
		}
		if next < 0 {
			if cur+1 >= len(g.Blocks) {
				return prof, nil
			}
			next = cur + 1
		}
		prof.Edge[[2]int{cur, next}]++
		cur = next
	}
}

// HottestBlocks returns block indices sorted by descending execution count
// (ties by index).
func (p *Profile) HottestBlocks() []int {
	idx := make([]int, len(p.Block))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return p.Block[idx[a]] > p.Block[idx[b]]
	})
	return idx
}
