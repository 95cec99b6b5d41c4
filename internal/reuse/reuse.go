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
	"math/bits"
	"sort"
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
	// IsReg records whether this is a register-class structure (built by
	// Reg, with Class the register class) rather than a functional-unit
	// structure (built by FU). UpdateClosureInto needs the distinction: FU
	// orders follow reachability directly, register orders go through kill
	// selection.
	IsReg bool
	Class ir.Class
}

// NumItems returns the number of resource-holding items.
func (r *Reuse) NumItems() int { return len(r.Items) }

// String summarizes the reuse structure.
func (r *Reuse) String() string {
	return fmt.Sprintf("reuse{%d items, %d pairs}", len(r.Items), r.Rel.Pairs())
}

// FU builds the reuse structure for a functional-unit family: the instructions
// selected by member (e.g. all instructions on a homogeneous machine, or
// only the memory ops for a load/store unit).
func FU(g *dag.Graph, member func(*dag.Node) bool) *Reuse {
	r := &Reuse{Graph: g}
	for _, n := range g.Nodes {
		if n.IsPseudo() || !member(n) {
			continue
		}
		r.Items = append(r.Items, Item{Node: n.ID})
	}
	r.Rel = order.NewRelation(len(r.Items))
	fillRel(r.Rel, r.Items, nil, g.Reach(), nil)
	return r
}

// itemIndex maps graph nodes to the items they produce, for deriving reuse
// pairs a word at a time: mask holds the nodes that produce an item, and
// item[v] is the item node v produces, or -1 when several do. Only the
// root produces several (the live-in values), and the root is never
// reached and never a kill, so no pair involves it through the index.
type itemIndex struct {
	mask []uint64
	item []int32
}

// build indexes items over a graph of nn nodes, reusing the storage.
func (ix *itemIndex) build(items []Item, nn int) {
	ix.mask = grow(ix.mask, (nn+63)/64)
	clear(ix.mask)
	ix.item = grow(ix.item, nn)
	for i, it := range items {
		v, bit := it.Node, uint64(1)<<(it.Node&63)
		if ix.mask[v>>6]&bit != 0 {
			ix.item[v] = -1
			continue
		}
		ix.mask[v>>6] |= bit
		ix.item[v] = int32(i)
	}
}

// indexes pools the item indexes of the one-shot builds (FU, Values).
var indexes = sync.Pool{New: func() any { return new(itemIndex) }}

// fillRel adds CanReuse_R's pairs over items to rel, derived from the node
// reachability closure reach. For functional-unit items (kill nil), (a, b)
// iff a's node reaches b's. For value items, (a, b) iff Kill(a) is b's
// producer or reaches it; killed-at-leaf values (kill -1) relate to
// nothing. Each item's pairs are the set bits of its node's closure row
// under the item mask, read 64 nodes at a time. ix is the caller's
// reusable index; nil borrows a pooled one.
func fillRel(rel *order.Relation, items []Item, kill []int, reach *order.Relation, ix *itemIndex) {
	if ix == nil {
		ix = indexes.Get().(*itemIndex)
		defer indexes.Put(ix)
	}
	ix.build(items, reach.Size())
	for i, a := range items {
		k := a.Node
		if kill != nil {
			k = kill[i]
		}
		if k < 0 {
			continue
		}
		row := reach.Row(k).Words()
		for w, mw := range ix.mask {
			x := row[w]
			if w == k>>6 {
				x |= 1 << (k & 63) // k's own item; for FU items that is a
			}
			for x &= mw; x != 0; x &= x - 1 {
				if j := int(ix.item[w<<6|bits.TrailingZeros64(x)]); j >= 0 && j != i {
					rel.Add(i, j)
				}
			}
		}
	}
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
	f := g.Func
	return Values(g, c,
		func(n *dag.Node) bool { return f.ClassOf(n.Instr.Dst) == c },
		func(v ir.VReg) bool { return f.ClassOf(v) == c })
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
// structure for incremental updates; value sets spanning classes may pass
// any class.
func Values(g *dag.Graph, c ir.Class, include func(n *dag.Node) bool, liveIn func(v ir.VReg) bool) *Reuse {
	r := &Reuse{Graph: g, IsReg: true, Class: c}

	// Region-defined values. The defined set tracks every definition, not
	// just the included ones: a region-defined value excluded by the filter
	// must not come back as a live-in.
	defined := make(map[ir.VReg]bool)
	for _, n := range g.Nodes {
		if n.Instr == nil || n.Instr.Dst == ir.NoReg {
			continue
		}
		defined[n.Instr.Dst] = true
		if !include(n) {
			continue
		}
		r.Items = append(r.Items, Item{Node: n.ID, Reg: n.Instr.Dst})
	}
	// Live-in values: used but not defined in the region.
	liveInSet := make(map[ir.VReg]bool)
	if liveIn != nil {
		for _, n := range g.Nodes {
			if n.Instr == nil {
				continue
			}
			for _, u := range n.Instr.Uses() {
				if !defined[u] && liveIn(u) {
					liveInSet[u] = true
				}
			}
		}
	}
	liveInRegs := make([]ir.VReg, 0, len(liveInSet))
	for v := range liveInSet {
		liveInRegs = append(liveInRegs, v)
	}
	sort.Slice(liveInRegs, func(i, j int) bool { return liveInRegs[i] < liveInRegs[j] })
	for _, v := range liveInRegs {
		r.Items = append(r.Items, Item{Node: g.Root, Reg: v})
	}

	reach := g.Reach()
	r.Kill = SelectKills(g, r.Items, reach)
	r.Rel = order.NewRelation(len(r.Items))
	fillRel(r.Rel, r.Items, r.Kill, reach, nil)
	return r
}

// SelectKills chooses, for every value item, the use node assumed to kill it
// under the worst-case schedule. Candidates are the value's maximal uses
// (uses with no other use of the same value downstream); live-out values and
// values with no uses are killed at the leaf (-1). Kills are chosen by
// greedy minimum cover — pick the node that kills the most still-unkilled
// values — maximizing the number of dependents that can be simultaneously
// live with their ancestors (paper §3.2). Ties prefer deeper nodes, then
// lower node ids, keeping results deterministic.
func SelectKills(g *dag.Graph, items []Item, reach *order.Relation) []int {
	var ks KillScratch
	ks.PrecomputeUses(g, items)
	return SelectKillsInto(g, items, reach, g.Depths(), &ks)
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
