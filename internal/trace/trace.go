// Package trace implements Fisher-style trace selection and trace-level
// compilation (paper §2, [Fis81]): the most frequently executed acyclic
// block sequences are chosen from an execution profile, concatenated into a
// single dependence DAG that allows safe upward code motion across branches
// (pure operations and loads may be speculated; stores and branches keep
// their order), and compiled as one region. URSA operates on exactly this
// representation.
package trace

import (
	"fmt"

	"ursa/internal/assign"
	"ursa/internal/cfg"
	"ursa/internal/core"
	"ursa/internal/dag"
	"ursa/internal/ir"
	"ursa/internal/machine"
	"ursa/internal/sched"
	"ursa/internal/vliwsim"
)

// A Trace is an acyclic sequence of basic blocks expected to execute
// together.
type Trace struct {
	Graph  *cfg.Graph
	Blocks []int // block indices in execution order
}

// Labels returns the block labels of the trace.
func (t *Trace) Labels() []string {
	out := make([]string, len(t.Blocks))
	for i, b := range t.Blocks {
		out[i] = t.Graph.Blocks[b].Label
	}
	return out
}

// Select forms traces from the profile with Fisher's algorithm: seed each
// trace at the hottest unvisited block, grow forward along the
// highest-count edges into unvisited blocks, then grow backward the same
// way. Every block lands in exactly one trace.
func Select(g *cfg.Graph, prof *cfg.Profile) []*Trace {
	visited := make([]bool, len(g.Blocks))
	var traces []*Trace
	for _, seed := range prof.HottestBlocks() {
		if visited[seed] {
			continue
		}
		tr := &Trace{Graph: g, Blocks: []int{seed}}
		visited[seed] = true
		// Forward growth.
		for {
			tail := tr.Blocks[len(tr.Blocks)-1]
			next, best := -1, int64(0)
			for _, s := range g.Succs(tail) {
				if c := prof.EdgeCount(tail, s); !visited[s] && c > best {
					next, best = s, c
				}
			}
			if next < 0 {
				break
			}
			visited[next] = true
			tr.Blocks = append(tr.Blocks, next)
		}
		// Backward growth.
		for {
			head := tr.Blocks[0]
			prev, best := -1, int64(0)
			for _, p := range g.Preds(head) {
				if c := prof.EdgeCount(p, head); !visited[p] && c > best {
					prev, best = p, c
				}
			}
			if prev < 0 {
				break
			}
			visited[prev] = true
			tr.Blocks = append([]int{prev}, tr.Blocks...)
		}
		traces = append(traces, tr)
	}
	return traces
}

// instrs returns the trace's instruction sequence with internal control
// flow normalized: unconditional branches to the next trace block are
// dropped, and conditional branches whose taken edge stays on the trace are
// inverted so that "taken" always means "leave the trace" (the classic
// bookkeeping-free subset of trace formation).
func (t *Trace) instrs() ([]*ir.Instr, error) {
	g := t.Graph
	var out []*ir.Instr
	for pos, bi := range t.Blocks {
		blk := g.Blocks[bi]
		last := pos == len(t.Blocks)-1
		var next int = -1
		if !last {
			next = t.Blocks[pos+1]
		}
		for _, in := range blk.Instrs {
			if !in.IsBranch() {
				out = append(out, in.Clone())
				continue
			}
			if last {
				out = append(out, in.Clone())
				continue
			}
			switch in.Op {
			case ir.Br:
				if g.Index(in.Sym) != next {
					return nil, fmt.Errorf("trace: unconditional branch leaves the trace mid-way")
				}
				// Redundant inside the trace.
			case ir.BrTrue, ir.BrFalse:
				target := g.Index(in.Sym)
				fall := bi + 1
				switch next {
				case fall:
					out = append(out, in.Clone()) // taken = exit
				case target:
					// Invert: staying on trace is the taken edge.
					inv := in.Clone()
					if in.Op == ir.BrTrue {
						inv.Op = ir.BrFalse
					} else {
						inv.Op = ir.BrTrue
					}
					if fall >= len(g.Blocks) {
						return nil, fmt.Errorf("trace: conditional fall-through off the end")
					}
					inv.Sym = g.Blocks[fall].Label
					out = append(out, inv)
				default:
					return nil, fmt.Errorf("trace: successor %d not adjacent to branch", next)
				}
			case ir.Ret:
				return nil, fmt.Errorf("trace: ret in the middle of a trace")
			}
		}
	}
	return out, nil
}

// BuildDAG constructs the trace's dependence DAG. Data and memory
// dependences follow dag.Build; control dependences implement safe
// speculation: branches stay mutually ordered, stores stay pinned between
// their surrounding branches, and pure operations and loads may move freely
// (our memory model is total, so a speculated load cannot fault).
func BuildDAG(t *Trace) (*dag.Graph, error) {
	instrs, err := t.instrs()
	if err != nil {
		return nil, err
	}
	f := t.Graph.Func
	g := dag.New(f)

	defNode := make(map[ir.VReg]int)
	var memNodes []int
	var branches []int
	lastBranch := -1

	for _, in := range instrs {
		id := g.AddInstr(in)
		for _, u := range in.Uses() {
			if dn, ok := defNode[u]; ok {
				g.AddEdge(dn, id, dag.EdgeData)
			}
		}
		if in.Dst != ir.NoReg {
			if _, dup := defNode[in.Dst]; dup {
				return nil, fmt.Errorf("trace: register %s defined in two blocks", f.NameOf(in.Dst))
			}
			defNode[in.Dst] = id
		}
		if in.IsMem() {
			for _, prev := range memNodes {
				pin := g.Nodes[prev].Instr
				if (pin.IsStore() || in.IsStore()) && dag.MayAlias(pin, in) {
					g.AddEdge(prev, id, dag.EdgeMem)
				}
			}
			memNodes = append(memNodes, id)
		}
		if in.IsStore() && lastBranch >= 0 {
			g.AddEdge(lastBranch, id, dag.EdgeSeq) // no store speculation
		}
		if in.IsBranch() {
			if lastBranch >= 0 {
				g.AddEdge(lastBranch, id, dag.EdgeSeq) // branches stay ordered
			}
			// Stores before this branch must complete before control can
			// leave the trace.
			for _, prev := range memNodes {
				if g.Nodes[prev].Instr.IsStore() && prev != id {
					g.AddEdge(prev, id, dag.EdgeSeq)
				}
			}
			branches = append(branches, id)
			lastBranch = id
		}
	}
	_ = branches

	for _, n := range g.InstrNodes() {
		hasPred, hasSucc := false, false
		for _, p := range g.Preds(n) {
			if p != g.Root {
				hasPred = true
			}
		}
		for _, s := range g.Succs(n) {
			if s != g.Leaf {
				hasSucc = true
			}
		}
		if !hasPred {
			g.AddEdge(g.Root, n, dag.EdgeSeq)
		}
		if !hasSucc {
			g.AddEdge(n, g.Leaf, dag.EdgeSeq)
		}
	}
	if len(g.InstrNodes()) == 0 {
		g.AddEdge(g.Root, g.Leaf, dag.EdgeSeq)
	}

	// Defined-but-unused values survive the trace.
	used := make(map[ir.VReg]bool)
	for _, in := range instrs {
		for _, u := range in.Uses() {
			used[u] = true
		}
	}
	for v := range defNode {
		if !used[v] {
			g.LiveOut[v] = true
		}
	}
	if err := g.Check(); err != nil {
		return nil, err
	}
	return g, nil
}

// Reference interprets the trace's original blocks sequentially from a copy
// of init, following actual branch outcomes, and returns the final state
// plus the exit: "" when control runs off the trace's end (or a final
// branch falls through), "ret" for a return, otherwise the label of the
// off-trace block control left to.
func Reference(t *Trace, init *ir.State) (*ir.State, string, error) {
	g := t.Graph
	f := g.Func
	st := init.Clone()
	for pos, bi := range t.Blocks {
		blk := g.Blocks[bi]
		last := pos == len(t.Blocks)-1
		branched := false
		for _, in := range blk.Instrs {
			switch in.Op {
			case ir.Br, ir.BrTrue, ir.BrFalse:
				taken := st.Taken(in)
				var dest int
				if taken {
					dest = g.Index(in.Sym)
				} else {
					dest = bi + 1
				}
				if !last && dest == t.Blocks[pos+1] {
					branched = true // stays on trace
					continue
				}
				if last && !taken {
					return st, "", nil
				}
				if dest >= len(g.Blocks) {
					return st, "", nil
				}
				return st, g.Blocks[dest].Label, nil
			case ir.Ret:
				return st, "ret", nil
			default:
				st.Exec(f, in)
			}
		}
		if branched || last {
			if branched && !last {
				continue
			}
			return st, "", nil
		}
		// Fall through (no terminator): must continue to the next trace
		// block or exit off-trace.
		if bi+1 != t.Blocks[pos+1] {
			return st, g.Blocks[bi+1].Label, nil
		}
	}
	return st, "", nil
}

// Compile builds the trace DAG, optionally runs URSA's allocation on it,
// and emits VLIW code.
func Compile(t *Trace, m *machine.Config, useURSA bool, copts core.Options) (*assign.Program, *core.Report, error) {
	g, err := BuildDAG(t)
	if err != nil {
		return nil, nil, err
	}
	if !useURSA {
		prog, _, err := assign.Emit(g, m, sched.Options{})
		return prog, nil, err
	}
	copts.Machine = m
	rep, err := core.Run(g, copts)
	if err != nil {
		return nil, nil, err
	}
	if rep.Program == nil {
		return nil, nil, rep.EmitErr
	}
	return rep.Program, rep, nil
}

// Verify runs the compiled trace on the simulator and compares memory and
// exit against the reference interpretation. Registers are not compared:
// speculated operations legitimately leave extra register results.
func Verify(prog *assign.Program, t *Trace, init *ir.State) (*vliwsim.Result, error) {
	ref, exit, err := Reference(t, init)
	if err != nil {
		return nil, err
	}
	res, err := vliwsim.Run(prog, init.Clone())
	if err != nil {
		return nil, err
	}
	if res.Exit != exit {
		return nil, fmt.Errorf("trace: exit %q, want %q", res.Exit, exit)
	}
	if d := ir.MemDiff(ref, res.State); d != nil {
		return nil, fmt.Errorf("trace: %w", d)
	}
	return res, nil
}
