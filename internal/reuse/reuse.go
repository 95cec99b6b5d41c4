// Package reuse constructs the reuse structures of paper §3: for each
// resource, a strict partial order CanReuse_R over the resource-holding
// items, where (a, b) ∈ CanReuse_R means no schedule can execute b while
// a's resource instance is still in use. Minimum chain decompositions of
// these orders yield the maximum resource requirements (Theorem 1 /
// Dilworth).
//
// A Reuse keeps only the closed order, which is all measurement reads. The
// Reuse DAG of Def. 4 — the order's transitive reduction — is for drawing
// and is derived on demand by Reuse.Dot.
//
// Functional units: an FU is busy only while its instruction executes, so
// CanReuse_FU is exactly DAG reachability restricted to the instructions
// that run on that FU family (§3.2, non-pipelined machines).
//
// Registers: a register is busy from its defining instruction until the
// value's killing use executes. URSA assumes no specific schedule, so the
// kill is chosen to maximize worst-case requirements; choosing the kills is
// NP-complete (Theorem 2, reduction from minimum cover), approximated here
// by greedy minimum cover exactly as the paper prescribes.
package reuse

import (
	"fmt"
	"strings"
	"sync"

	"ursa/internal/dag"
	"ursa/internal/ir"
	"ursa/internal/order"
)

// Item is one resource-holding entity.
//
// For a functional-unit resource an item is an instruction node. For a
// register resource an item is a value: a region-defined value (Node = its
// defining node) or a live-in value (Node = the graph root, Reg = the
// incoming register).
type Item struct {
	Node int     // producer node id in the dependence DAG
	Reg  ir.VReg // the value's register; NoReg for FU items
}

// Reuse is the reuse structure for one resource over one dependence DAG.
type Reuse struct {
	Graph *dag.Graph
	Items []Item

	// Rel is CanReuse_R over item indices (transitively closed).
	Rel *order.Relation
	// Kill maps item index -> killer node id in the graph (register
	// resources only; -1 means killed at the leaf / live-out).
	Kill []int
	// IsReg records whether this is a value structure (registers, buffers:
	// orders go through kill selection, Class is the register class) rather
	// than a functional-unit structure (orders follow reachability).
	IsReg bool
	Class ir.Class

	// nodes and regs are the graph's node and register counts at build
	// time: while a graph keeps them, its items are these.
	nodes, regs int
}

// NumItems returns the number of resource-holding items.
func (r *Reuse) NumItems() int { return len(r.Items) }

// String summarizes the reuse structure.
func (r *Reuse) String() string {
	return fmt.Sprintf("reuse{%d items, %d pairs}", len(r.Items), r.Rel.Pairs())
}

// A Spec selects one resource's items on a graph. A functional-unit spec
// selects the instructions Member admits (pseudo nodes never). A value
// spec (Values set) selects the region-defined values whose defining node
// Member admits (called only for nodes with a destination) plus, when
// LiveIn is non-nil, the used-but-region-undefined registers LiveIn
// admits, produced at the root; Class tags the structure.
type Spec struct {
	Values bool
	Class  ir.Class
	Member func(g *dag.Graph, n *dag.Node) bool
	LiveIn func(g *dag.Graph, v ir.VReg) bool
}

// FUSpec is the functional-unit spec of the instructions member selects.
func FUSpec(member func(*dag.Node) bool) Spec {
	return Spec{Member: func(_ *dag.Graph, n *dag.Node) bool { return member(n) }}
}

// RegSpec is the spec of the register class c: the values of that class,
// region-defined and live-in.
func RegSpec(c ir.Class) Spec {
	return Spec{
		Values: true,
		Class:  c,
		Member: func(g *dag.Graph, n *dag.Node) bool { return g.Func.ClassOf(n.Instr.Dst) == c },
		LiveIn: func(g *dag.Graph, v ir.VReg) bool { return g.Func.ClassOf(v) == c },
	}
}

// builders pools the storage behind the one-shot builds.
var builders = sync.Pool{New: func() any { return new(Builder) }}

// Build returns the spec's reuse structure on g, whose closure is reach and
// node depths depth (read by value specs only), in storage of its own.
func (s *Spec) Build(g *dag.Graph, reach *order.Relation, depth []int) *Reuse {
	b := builders.Get().(*Builder)
	defer builders.Put(b)
	built, _ := b.Build(g, s, reach, depth, nil, nil)
	r := *built
	// The result keeps the storage it was built in.
	b.out, b.items, b.rel, b.kill = Reuse{}, nil, nil, nil
	return &r
}

// FU builds the reuse structure for a functional-unit family: the instructions
// selected by member (e.g. all instructions on a homogeneous machine, or
// only the memory ops for a load/store unit).
func FU(g *dag.Graph, member func(*dag.Node) bool) *Reuse {
	s := FUSpec(member)
	return s.Build(g, g.Reach(), nil)
}

// AllFUs is the member predicate selecting every instruction: the paper's
// homogeneous-FU model.
func AllFUs(n *dag.Node) bool { return true }

// KindFUs returns a member predicate selecting instructions of one
// functional-unit kind.
func KindFUs(k ir.Kind) func(*dag.Node) bool {
	return func(n *dag.Node) bool { return n.Instr != nil && n.Instr.Kind() == k }
}

// Reg builds the reuse structure for the register class c. Items are the values
// of that class: region-defined values plus live-in registers (produced at
// the root, occupying a register from region entry until their kill).
// Values in g.LiveOut are killed at the leaf and hence never reusable.
func Reg(g *dag.Graph, c ir.Class) *Reuse {
	s := RegSpec(c)
	return s.Build(g, g.Reach(), g.Depths())
}

// Values builds the reuse structure for an arbitrary value-holding resource:
// region-defined values selected by include (called only for nodes with a
// destination) plus, when liveIn is non-nil, the used-but-region-undefined
// registers liveIn selects, produced at the root. Reg is the register-class
// instance; per-cluster register files (values defined on one cluster) and
// exposed-datapath output buffers (non-live-out values of one producer FU
// class, both register classes) are narrower or skew value sets over the
// same worst-case kill-selection machinery — a buffer slot, like a
// register, frees when the value's last (kill) reader issues, so
// CanReuse_Reg's structure transfers unchanged. The class tag c labels the
// structure; value sets spanning classes may pass any class.
func Values(g *dag.Graph, c ir.Class, include func(n *dag.Node) bool, liveIn func(v ir.VReg) bool) *Reuse {
	s := Spec{Values: true, Class: c, Member: func(_ *dag.Graph, n *dag.Node) bool { return include(n) }}
	if liveIn != nil {
		s.LiveIn = func(_ *dag.Graph, v ir.VReg) bool { return liveIn(v) }
	}
	return s.Build(g, g.Reach(), g.Depths())
}

// Dot renders the Reuse DAG (the transitive reduction of CanReuse, Def. 4,
// computed here from Rel) in Graphviz format: one node per
// resource-holding item, labelled with its producer, one edge per
// covering reuse pair.
func (r *Reuse) Dot(title string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n", title)
	sb.WriteString("  rankdir=TB;\n  node [shape=box, fontname=\"monospace\"];\n")
	f := r.Graph.Func
	for i, it := range r.Items {
		label := r.Graph.Nodes[it.Node].Name
		if it.Reg != ir.NoReg {
			label = f.NameOf(it.Reg)
			if it.Node == r.Graph.Root {
				label += " (live-in)"
			}
		}
		if r.Kill != nil && r.Kill[i] >= 0 {
			label += fmt.Sprintf("\\nkill: %s", r.Graph.Nodes[r.Kill[i]].Name)
		}
		fmt.Fprintf(&sb, "  i%d [label=\"%s\"];\n", i, label)
	}
	red := r.Rel.TransitiveReduction()
	for a := 0; a < r.NumItems(); a++ {
		red.Row(a).ForEach(func(b int) {
			fmt.Fprintf(&sb, "  i%d -> i%d;\n", a, b)
		})
	}
	sb.WriteString("}\n")
	return sb.String()
}
