package reuse

import (
	"math/bits"
	"slices"

	"ursa/internal/dag"
	"ursa/internal/ir"
	"ursa/internal/order"
)

// A Builder derives reuse structures into storage it keeps across builds:
// the items, the kill selection with its use lists, inverted lists and
// heap, the node-to-item index the pair derivation reads, and the
// relation. One builder serves one resource of one evaluator worker; the
// zero value is ready to use.
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

	// Kill selection works on candidate killers: the distinct maximal
	// uses, numbered in order of first appearance.
	cands    []killCand
	candOf   []int32 // node -> candidate + 1, 0 for none
	maxUses  []int32 // the items' maximal uses (candidates), item after item
	maxStart []int   // item i's are maxUses[maxStart[i]:maxStart[i+1]]
	inv      []int32 // the items each candidate is a maximal use of
	heap     []killKey

	ix itemIndex
}

// A Change says how a build relates to the prev it was given.
type Change uint8

const (
	// Rebuilt: there is no prev, or the items or the kills differ from
	// prev's. The width must be matched cold.
	Rebuilt Change = iota
	// Grown: the items and kills are prev's, and the order gained pairs. A
	// matching of prev's order is a matching of the result's.
	Grown
	// Unchanged: the relation is prev's, and Build returned prev itself.
	// prev's width is the result's.
	Unchanged
)

func (c Change) String() string { return [...]string{"rebuilt", "grown", "unchanged"}[c] }

// Build derives the spec's reuse structure on g, whose closure is reach
// and node depths depth (read by value specs only), and reports how it
// relates to prev. The structure lives in b's storage and is valid until
// b's next Build; an Unchanged build returns prev.
//
// prev, when non-nil, is the spec's structure on the graph g came from by
// one candidate (the evaluator's committed generation), built from the
// closure prevReach. While g has prev's node and register counts, only
// sequencing edges were added: the items are prev's, and the use lists of
// the last build against prev still hold. Reachability among existing
// nodes only grows under any candidate, so when the items and kills are
// prev's, CanReuse only gained pairs (Grown: measure.Width's warm-start
// condition). Its pairs are the kill nodes' closure rows under the item
// mask (the item's own node for FU items), so when none of those rows
// differs from its row in prevReach, the relation is prev's (Unchanged)
// and the pair derivation is skipped. A spill's new nodes lie beyond
// prevReach's size; when the items and kills held, no item is one of them.
func (b *Builder) Build(g *dag.Graph, spec *Spec, reach *order.Relation, depth []int, prev *Reuse, prevReach *order.Relation) (*Reuse, Change) {
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
	b.ix.build(items, nn)
	if same && b.rowsHeld(items, kill, reach, prevReach) {
		return prev, Unchanged
	}
	if b.rel == nil {
		b.rel = new(order.Relation)
	}
	b.rel.Reset(len(items))
	b.fill(items, kill, reach)
	b.out = Reuse{Graph: g, Items: items, Rel: b.rel, Kill: kill,
		IsReg: spec.Values, Class: spec.Class, nodes: nn, regs: nr}
	if same {
		return &b.out, Grown
	}
	return &b.out, Rebuilt
}

// rowsHeld reports whether every item's pair row — its kill's closure row
// under the item mask, or its own node's for FU items — reads the same in
// reach as in prevReach. The items must all lie within prevReach.
func (b *Builder) rowsHeld(items []Item, kill []int, reach, prevReach *order.Relation) bool {
	mask := b.ix.mask
	for i, a := range items {
		k := a.Node
		if kill != nil {
			k = kill[i]
		}
		if k < 0 {
			continue
		}
		old, cur := prevReach.Row(k).Words(), reach.Row(k).Words()
		for w, x := range old {
			if (x^cur[w])&mask[w] != 0 {
				return false
			}
		}
	}
	return true
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
//
// Each pick comes off a max-heap of the candidates by that key, with the
// inverted lists giving the values a pick kills. Covers only fall, so an
// entry whose cover has fallen since it was keyed is re-keyed (or dropped
// at zero) when it reaches the top; an up-to-date top is the maximum. With
// M maximal uses over C candidates, that is O((C + M) log C), where
// rescanning the candidates per pick was quadratic.
func (b *Builder) selectKills(g *dag.Graph, items []Item, reach *order.Relation, depth []int) []int {
	b.kill = grow(b.kill, len(items))
	kill := b.kill
	b.candOf = grow(b.candOf, g.NumNodes())
	clear(b.candOf)
	b.maxUses = b.maxUses[:0]
	b.maxStart = grow(b.maxStart, len(items)+1)
	b.maxStart[0] = 0
	nc := int32(0)
	for i, it := range items {
		kill[i] = -1
		if uses := b.uses[i]; !g.LiveOut[it.Reg] {
			for _, u := range uses {
				if slices.ContainsFunc(uses, func(w int) bool { return w != u && reach.Has(u, w) }) {
					continue
				}
				if b.candOf[u] == 0 {
					nc++
					b.candOf[u] = nc
				}
				b.maxUses = append(b.maxUses, b.candOf[u]-1)
			}
		}
		b.maxStart[i+1] = len(b.maxUses)
	}
	b.cands = stretch(b.cands, int(nc))
	clear(b.cands)
	for u, c := range b.candOf {
		if c > 0 {
			b.cands[c-1].node = u
		}
	}
	for _, c := range b.maxUses {
		b.cands[c].cover++
	}

	// Inverted lists: each candidate's start begins at the end of its list
	// and counts down as the items are filled in backward, so each list
	// holds its items in order.
	end := int32(0)
	for c := range b.cands {
		end += b.cands[c].cover
		b.cands[c].start = end
	}
	b.inv = stretch(b.inv, len(b.maxUses))
	for i := len(items) - 1; i >= 0; i-- {
		for _, c := range b.maxUses[b.maxStart[i]:b.maxStart[i+1]] {
			b.cands[c].start--
			b.inv[b.cands[c].start] = int32(i)
		}
	}

	h := stretch(b.heap, int(nc))
	for c := range h {
		u := b.cands[c].node
		h[c] = killKey{cover: b.cands[c].cover, depth: int32(depth[u]), node: int32(u)}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for len(h) > 0 {
		top := h[0]
		cand := b.candOf[top.node] - 1
		c := &b.cands[cand]
		if c.cover != top.cover && c.cover > 0 {
			h[0].cover = c.cover // a stale entry: re-key it
			siftDown(h, 0)
			continue
		}
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		siftDown(h, 0)
		if c.cover == 0 {
			continue // every value it could kill is killed
		}
		end := int32(len(b.inv))
		if cand+1 < nc {
			end = b.cands[cand+1].start
		}
		for _, i := range b.inv[c.start:end] {
			if kill[i] >= 0 {
				continue
			}
			kill[i] = c.node
			for _, d := range b.maxUses[b.maxStart[i]:b.maxStart[i+1]] {
				b.cands[d].cover--
			}
		}
	}
	b.heap = h
	return kill
}

// A killCand is a candidate killer: its node, the unkilled values it can
// kill, and where its inverted list starts.
type killCand struct {
	node  int
	cover int32
	start int32
}

// A killKey is a kill candidate's heap entry: the cover it was keyed
// with, its node's depth, and its node.
type killKey struct {
	cover, depth, node int32
}

// before reports whether x ranks above y by (cover, depth, -node id).
func (x killKey) before(y killKey) bool {
	if x.cover != y.cover {
		return x.cover > y.cover
	}
	if x.depth != y.depth {
		return x.depth > y.depth
	}
	return x.node < y.node
}

// siftDown restores the heap order below entry i of h.
func siftDown(h []killKey, i int) {
	for {
		best := i
		if l := 2*i + 1; l < len(h) && h[l].before(h[best]) {
			best = l
		}
		if r := 2*i + 2; r < len(h) && h[r].before(h[best]) {
			best = r
		}
		if best == i {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
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
// reachability closure reach through the item index Build made. For
// functional-unit items (kill nil), (a, b) iff a's node reaches b's. For
// value items, (a, b) iff Kill(a) is b's producer or reaches it;
// killed-at-leaf values (kill -1) relate to nothing. Each item's pairs are
// the set bits of its node's closure row under the item mask, read 64
// nodes at a time.
func (b *Builder) fill(items []Item, kill []int, reach *order.Relation) {
	ix := &b.ix
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

// stretch is grow for buffers whose length drifts from build to build: it
// reallocates with append's headroom, so a slowly growing length does not
// reallocate on every build.
func stretch[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// grow returns a length-n slice reusing s's storage when possible. The
// contents are unspecified; callers overwrite or clear them.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
