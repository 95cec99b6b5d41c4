// Package dag implements the dependence DAG that URSA uses to represent a
// region of straight-line code (a basic block or trace) while measuring and
// transforming its resource requirements (paper §2).
//
// The graph has a single pseudo root and a single pseudo leaf representing
// entry to and exit from the region, so the whole graph is a hammock. Edges
// are data dependences, memory-ordering dependences, or sequentialization
// edges (added by the trace scheduler or by URSA's transformations). All
// three edge kinds constrain scheduling identically; the distinction is kept
// for reporting and for DOT output.
package dag

import (
	"fmt"
	"slices"

	"ursa/internal/ir"
	"ursa/internal/order"
)

// EdgeKind distinguishes why an edge exists.
type EdgeKind uint8

// Edge kinds.
const (
	EdgeData EdgeKind = iota // true data dependence (def -> use)
	EdgeMem                  // memory ordering (store/load conflicts)
	EdgeSeq                  // sequentialization added by trace layout or URSA
)

// String returns the kind's name.
func (k EdgeKind) String() string {
	switch k {
	case EdgeData:
		return "data"
	case EdgeMem:
		return "mem"
	case EdgeSeq:
		return "seq"
	}
	return fmt.Sprintf("edgekind(%d)", uint8(k))
}

// Node is a DAG node: one instruction, or the pseudo root/leaf.
type Node struct {
	ID    int
	Instr *ir.Instr // nil for pseudo nodes
	// Name is a display label; for pseudo nodes "root"/"leaf", otherwise
	// derived from the instruction.
	Name string
}

// IsPseudo reports whether the node is the root or leaf marker.
func (n *Node) IsPseudo() bool { return n.Instr == nil }

// Graph is the dependence DAG.
type Graph struct {
	Func  *ir.Func
	Nodes []*Node
	Root  int // pseudo entry node id
	Leaf  int // pseudo exit node id

	// succ and pred are the adjacency lists, in insertion order; kind runs
	// parallel to succ: kind[a][i] is the kind of edge (a, succ[a][i]).
	succ [][]int
	kind [][]EdgeKind
	pred [][]int

	// LiveOut lists the registers whose values must survive the region:
	// their lifetimes extend to the leaf. Build sets it to the block's
	// ir.LiveOuts plus the caller's extras.
	LiveOut map[ir.VReg]bool
}

// New returns a graph containing only the pseudo root and leaf, with no edge
// between them.
func New(f *ir.Func) *Graph {
	g := &Graph{
		Func:    f,
		LiveOut: make(map[ir.VReg]bool),
	}
	g.Root = g.addNode(nil, "root")
	g.Leaf = g.addNode(nil, "leaf")
	return g
}

func (g *Graph) addNode(in *ir.Instr, name string) int {
	id := len(g.Nodes)
	g.Nodes = append(g.Nodes, &Node{ID: id, Instr: in, Name: name})
	g.succ = append(g.succ, nil)
	g.kind = append(g.kind, nil)
	g.pred = append(g.pred, nil)
	return id
}

// AddInstr appends a new node for the instruction and returns its id. The
// caller is responsible for wiring edges.
func (g *Graph) AddInstr(in *ir.Instr) int {
	name := fmt.Sprintf("n%d", len(g.Nodes))
	if in != nil {
		if in.Dst != ir.NoReg {
			name = g.Func.NameOf(in.Dst)
		} else {
			name = fmt.Sprintf("%s%d", in.Op, len(g.Nodes))
		}
	}
	return g.addNode(in, name)
}

// NumNodes returns the node count, including the two pseudo nodes.
func (g *Graph) NumNodes() int { return len(g.Nodes) }

// Succs returns the successor ids of n. Callers must not mutate the result.
func (g *Graph) Succs(n int) []int { return g.succ[n] }

// Preds returns the predecessor ids of n. Callers must not mutate the result.
func (g *Graph) Preds(n int) []int { return g.pred[n] }

// HasEdge reports whether the edge (a, b) exists.
func (g *Graph) HasEdge(a, b int) bool { return slices.Contains(g.succ[a], b) }

// EdgeKindOf returns the kind of edge (a, b); ok is false if absent.
func (g *Graph) EdgeKindOf(a, b int) (EdgeKind, bool) {
	i := slices.Index(g.succ[a], b)
	if i < 0 {
		return 0, false
	}
	return g.kind[a][i], true
}

// AddEdge inserts the edge (a, b) of the given kind. Duplicate insertions
// keep the first kind. Adding an edge that would create a cycle is the
// caller's responsibility to avoid: (a, b) closes one exactly when a == b
// or the graph's closure (Reach) has b reaching a.
func (g *Graph) AddEdge(a, b int, kind EdgeKind) {
	if g.HasEdge(a, b) {
		return
	}
	g.succ[a] = append(g.succ[a], b)
	g.kind[a] = append(g.kind[a], kind)
	g.pred[b] = append(g.pred[b], a)
}

// RemoveEdge deletes the edge (a, b) if present. The remaining entries of
// both adjacency lists keep their order.
func (g *Graph) RemoveEdge(a, b int) {
	i := slices.Index(g.succ[a], b)
	if i < 0 {
		return
	}
	g.succ[a] = slices.Delete(g.succ[a], i, i+1)
	g.kind[a] = slices.Delete(g.kind[a], i, i+1)
	j := slices.Index(g.pred[b], a)
	g.pred[b] = slices.Delete(g.pred[b], j, j+1)
}

// InstrNodes returns the ids of all non-pseudo nodes in id order.
func (g *Graph) InstrNodes() []int {
	out := make([]int, 0, len(g.Nodes)-2)
	for _, n := range g.Nodes {
		if !n.IsPseudo() {
			out = append(out, n.ID)
		}
	}
	return out
}

// Clone deep-copies the graph structure. Instructions are cloned too, so
// transformations on the copy cannot disturb the original.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		Func:    g.Func,
		Root:    g.Root,
		Leaf:    g.Leaf,
		LiveOut: make(map[ir.VReg]bool, len(g.LiveOut)),
	}
	c.Nodes = make([]*Node, len(g.Nodes))
	c.succ = make([][]int, len(g.succ))
	c.kind = make([][]EdgeKind, len(g.kind))
	c.pred = make([][]int, len(g.pred))
	for i, n := range g.Nodes {
		cn := &Node{ID: n.ID, Name: n.Name}
		if n.Instr != nil {
			cn.Instr = n.Instr.Clone()
		}
		c.Nodes[i] = cn
		c.succ[i] = slices.Clone(g.succ[i])
		c.kind[i] = slices.Clone(g.kind[i])
		c.pred[i] = slices.Clone(g.pred[i])
	}
	for k, v := range g.LiveOut {
		c.LiveOut[k] = v
	}
	return c
}

// TruncateNodes discards every node with id >= n, rewinding the graph to an
// earlier NumNodes snapshot. The caller must already have removed every
// edge touching a discarded node (RemoveEdge); the method panics if one
// survives. The candidate evaluator uses this to undo the store/load nodes
// a tentative spill added to its scratch graph.
func (g *Graph) TruncateNodes(n int) {
	if n < 2 || n >= len(g.Nodes) {
		return
	}
	for i := n; i < len(g.Nodes); i++ {
		if len(g.succ[i]) > 0 || len(g.pred[i]) > 0 {
			panic(fmt.Sprintf("dag: TruncateNodes(%d): node %d still has edges", n, i))
		}
	}
	g.Nodes = g.Nodes[:n]
	g.succ = g.succ[:n]
	g.kind = g.kind[:n]
	g.pred = g.pred[:n]
}

// DefNode returns the id of the node defining register v, or -1.
func (g *Graph) DefNode(v ir.VReg) int {
	for _, n := range g.Nodes {
		if n.Instr != nil && n.Instr.Dst == v {
			return n.ID
		}
	}
	return -1
}

// UseNodes returns the ids of nodes that read register v, in id order.
func (g *Graph) UseNodes(v ir.VReg) []int {
	var out []int
	for _, n := range g.Nodes {
		if n.Instr == nil {
			continue
		}
		for _, u := range n.Instr.Uses() {
			if u == v {
				out = append(out, n.ID)
				break
			}
		}
	}
	return out
}

// Check validates structural invariants: adjacency consistency (every
// entry in range, succ and pred mirroring each other, one kind per
// successor), acyclicity, and single root/leaf connectivity (every node
// reachable from root and reaching leaf).
func (g *Graph) Check() error {
	n := len(g.Nodes)
	for a := range g.succ {
		if len(g.kind[a]) != len(g.succ[a]) {
			return fmt.Errorf("dag: node %d has %d successors but %d edge kinds", a, len(g.succ[a]), len(g.kind[a]))
		}
		for _, b := range g.succ[a] {
			if b < 0 || b >= n {
				return fmt.Errorf("dag: edge (%d,%d) out of range", a, b)
			}
			if !slices.Contains(g.pred[b], a) {
				return fmt.Errorf("dag: edge (%d,%d) missing from %d's predecessors", a, b, b)
			}
		}
		for _, p := range g.pred[a] {
			if p < 0 || p >= n {
				return fmt.Errorf("dag: edge (%d,%d) out of range", p, a)
			}
			if !slices.Contains(g.succ[p], a) {
				return fmt.Errorf("dag: edge (%d,%d) missing from %d's successors", p, a, p)
			}
		}
	}
	rel := g.Relation()
	if !rel.IsAcyclic() {
		return fmt.Errorf("dag: graph has a cycle")
	}
	reach := rel.TransitiveClosure()
	for _, nd := range g.Nodes {
		if nd.ID == g.Root || nd.ID == g.Leaf {
			continue
		}
		if !reach.Has(g.Root, nd.ID) {
			return fmt.Errorf("dag: node %d (%s) unreachable from root", nd.ID, nd.Name)
		}
		if !reach.Has(nd.ID, g.Leaf) {
			return fmt.Errorf("dag: node %d (%s) does not reach leaf", nd.ID, nd.Name)
		}
	}
	return nil
}

// Relation returns the edge set as an order.Relation over node ids.
func (g *Graph) Relation() *order.Relation {
	r := order.NewRelation(len(g.Nodes))
	for a, ss := range g.succ {
		for _, b := range ss {
			r.Add(a, b)
		}
	}
	return r
}

// ReplaceWith overwrites this graph's contents with another's (a shallow
// structural replacement; the other graph must not be used afterwards).
// The URSA driver uses this to commit the best of several transformation
// attempts back into the caller's graph.
func (g *Graph) ReplaceWith(o *Graph) {
	*g = *o
}
