package reuse

import (
	"math/bits"
	"slices"

	"ursa/internal/dag"
	"ursa/internal/ir"
	"ursa/internal/order"
)

// A Builder derives reuse structures into storage it keeps across builds:
// the items, the kill selection with its use lists and working buffers,
// the node-to-item index the pair derivation reads, and the relation. One
// builder serves one resource of one evaluator worker; the zero value is
// ready to use.
type Builder struct {
	out   Reuse
	items []Item
	kill  []int
	rel   *order.Relation

	// uses[i] lists the nodes reading item i's register, in id order.
	uses   [][]int
	usesOf *Reuse  // the prev whose items uses was derived for; nil: none
	itemOf []int32 // register -> item index + 1, 0 for no item
	marks  []uint8 // register -> defined or live-in, during collection

	maxUses []int // the items' maximal uses, item after item
	maxEnd  []int // item i's maximal uses end at maxUses[maxEnd[i]]
	cands   []int // the distinct maximal uses: the candidate killers
	cover   []int // node -> unkilled values it can kill

	ix itemIndex
}

// Build derives the spec's reuse structure on g, whose closure is reach
// and node depths depth (read by value specs only), and reports whether
// its items and kills equal prev's. The structure lives in b's storage
// and is valid until b's next Build.
//
// prev, when non-nil, is the spec's structure on the graph g came from by
// one candidate (the evaluator's committed generation). While g has
// prev's node and register counts, only sequencing edges were added: the
// items are prev's, and the use lists of the last build against prev
// still hold. Reachability among existing nodes only grows under any
// candidate, so when the items and kills are prev's, CanReuse only gained
// pairs and a matching of prev's order is a matching of the result's —
// the report is measure.Width's warm-start condition.
func (b *Builder) Build(g *dag.Graph, spec *Spec, reach *order.Relation, depth []int, prev *Reuse) (*Reuse, bool) {
	nn, nr := g.NumNodes(), g.Func.NumRegs()
	kept := prev != nil && prev.nodes == nn && prev.regs == nr
	var items []Item
	same := kept
	if kept {
		items = prev.Items
	} else {
		items = b.collect(g, spec)
		same = prev != nil && slices.Equal(items, prev.Items)
	}
	var kill []int
	if spec.Values {
		if !kept || b.usesOf != prev {
			b.precomputeUses(g, items)
			b.usesOf = nil
			if kept {
				b.usesOf = prev
			}
		}
		kill = b.selectKills(g, items, reach, depth)
		same = same && slices.Equal(kill, prev.Kill)
	}
	if b.rel == nil {
		b.rel = new(order.Relation)
	}
	b.rel.Reset(len(items))
	b.fill(items, kill, reach)
	b.out = Reuse{Graph: g, Items: items, Rel: b.rel, Kill: kill,
		IsReg: spec.Values, Class: spec.Class, nodes: nn, regs: nr}
	return &b.out, same
}

// collect gathers the spec's items on g into b's storage: instructions in
// node order, or region-defined values in node order followed by the
// live-ins in register order.
func (b *Builder) collect(g *dag.Graph, spec *Spec) []Item {
	items := b.items[:0]
	if !spec.Values {
		for _, n := range g.Nodes {
			if !n.IsPseudo() && spec.Member(g, n) {
				items = append(items, Item{Node: n.ID})
			}
		}
		b.items = items
		return items
	}
	// Every definition is marked, not just the admitted ones: a
	// region-defined value the spec excludes must not come back as a
	// live-in.
	const defined, liveIn = 1, 2
	nr := g.Func.NumRegs()
	b.marks = grow(b.marks, nr)
	marks := b.marks
	clear(marks)
	for _, n := range g.Nodes {
		if in := n.Instr; in != nil && in.Dst != ir.NoReg {
			marks[in.Dst] = defined
			if spec.Member(g, n) {
				items = append(items, Item{Node: n.ID, Reg: in.Dst})
			}
		}
	}
	if spec.LiveIn != nil {
		mark := func(u ir.VReg) {
			if marks[u] == 0 && spec.LiveIn(g, u) {
				marks[u] = liveIn
			}
		}
		for _, n := range g.Nodes {
			if in := n.Instr; in != nil {
				for _, u := range in.Args {
					mark(u)
				}
				if in.Index != ir.NoReg {
					mark(in.Index)
				}
			}
		}
		for v, m := range marks {
			if m == liveIn {
				items = append(items, Item{Node: g.Root, Reg: ir.VReg(v)})
			}
		}
	}
	b.items = items
	return items
}

// precomputeUses fills the per-item use lists for items: the same lists
// g.UseNodes returns, computed in one pass over the instructions instead
// of one pass per item.
func (b *Builder) precomputeUses(g *dag.Graph, items []Item) {
	nr := g.Func.NumRegs()
	b.itemOf = grow(b.itemOf, nr)
	clear(b.itemOf)
	b.uses = grow(b.uses, len(items))
	for i, it := range items {
		b.uses[i] = b.uses[i][:0]
		if it.Reg > 0 && int(it.Reg) < nr {
			b.itemOf[it.Reg] = int32(i + 1)
		}
	}
	use := func(n int, u ir.VReg) {
		if u <= 0 || int(u) >= nr || b.itemOf[u] == 0 {
			return
		}
		i := b.itemOf[u] - 1
		// A node reading the register through several operands counts
		// once, matching UseNodes' per-node dedupe.
		if l := b.uses[i]; len(l) == 0 || l[len(l)-1] != n {
			b.uses[i] = append(l, n)
		}
	}
	for _, n := range g.Nodes {
		if in := n.Instr; in != nil {
			for _, u := range in.Args {
				use(n.ID, u)
			}
			use(n.ID, in.Index)
		}
	}
}

// selectKills chooses, for every value item, the use node assumed to kill
// it under the worst-case schedule. Candidates are the value's maximal
// uses (uses with no other use of the same value downstream); live-out
// values and values with no uses are killed at the leaf (-1). Kills are
// chosen by greedy minimum cover — pick the node that kills the most
// still-unkilled values — maximizing the number of dependents that can be
// simultaneously live with their ancestors (paper §3.2). Ties prefer
// deeper nodes, then lower node ids: the (cover, depth, node-id) key is a
// total order, so every pick is deterministic. The use lists come from
// precomputeUses; the returned slice is b's.
func (b *Builder) selectKills(g *dag.Graph, items []Item, reach *order.Relation, depth []int) []int {
	b.kill = grow(b.kill, len(items))
	kill := b.kill
	// Item i's maximal uses are maxUses[maxEnd[i-1]:maxEnd[i]]; cands are
	// the distinct ones, and cover[u] counts the unkilled values u can kill.
	b.maxUses, b.maxEnd, b.cands = b.maxUses[:0], grow(b.maxEnd, len(items)), b.cands[:0]
	b.cover = grow(b.cover, g.NumNodes())
	cover := b.cover
	clear(cover)
	for i, it := range items {
		kill[i] = -1
		if uses := b.uses[i]; !g.LiveOut[it.Reg] {
			for _, u := range uses {
				if !slices.ContainsFunc(uses, func(w int) bool { return w != u && reach.Has(u, w) }) {
					if cover[u] == 0 {
						b.cands = append(b.cands, u)
					}
					cover[u]++
					b.maxUses = append(b.maxUses, u)
				}
			}
		}
		b.maxEnd[i] = len(b.maxUses)
	}
	for {
		best := -1
		for _, u := range b.cands {
			if c := cover[u]; c > 0 && (best < 0 || c > cover[best] ||
				(c == cover[best] && (depth[u] > depth[best] || (depth[u] == depth[best] && u < best)))) {
				best = u
			}
		}
		if best < 0 {
			return kill
		}
		start := 0
		for i, end := range b.maxEnd {
			if m := b.maxUses[start:end]; kill[i] < 0 && slices.Contains(m, best) {
				kill[i] = best
				for _, u := range m {
					cover[u]--
				}
				if cover[best] == 0 {
					break
				}
			}
			start = end
		}
	}
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

// fill adds CanReuse_R's pairs over items to b.rel, derived from the node
// reachability closure reach. For functional-unit items (kill nil), (a, b)
// iff a's node reaches b's. For value items, (a, b) iff Kill(a) is b's
// producer or reaches it; killed-at-leaf values (kill -1) relate to
// nothing. Each item's pairs are the set bits of its node's closure row
// under the item mask, read 64 nodes at a time.
func (b *Builder) fill(items []Item, kill []int, reach *order.Relation) {
	ix := &b.ix
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
					b.rel.Add(i, j)
				}
			}
		}
	}
}

// grow returns a length-n slice reusing s's storage when possible. The
// contents are unspecified; callers overwrite or clear them.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
