package reuse

import (
	"slices"

	"ursa/internal/dag"
	"ursa/internal/order"
)

// KillScratch holds the reusable state behind SelectKillsInto and
// UpdateClosureInto: per-value use lists precomputed once per reduction
// iteration, the kill-selection working buffers, and the node-to-item
// index the pair derivation reads. One scratch belongs to one evaluator
// worker; the zero value is ready to use.
type KillScratch struct {
	// uses[i] lists the nodes reading item i's register, in id order —
	// filled by PrecomputeUses. Sequencing edges never change uses, so one
	// precomputation serves every seq candidate of an iteration.
	uses [][]int

	itemOf []int32 // register -> item index + 1, 0 for no item

	kill      []int
	maximal   []int
	candNode  []int   // candidate killer node ids, in first-seen order
	candItems [][]int // per candidate killer: item indices it can kill
	candIdx   []int   // node id -> index into candNode+1, 0 = absent
	candDead  []bool  // candidate killer consumed by the greedy cover
	remaining []bool

	ix itemIndex // node -> item index behind UpdateClosureInto's fill
}

// PrecomputeUses fills the scratch's per-item use lists for the given item
// set: the same lists g.UseNodes returns, computed in one pass over the
// instructions instead of one pass per item.
func (ks *KillScratch) PrecomputeUses(g *dag.Graph, items []Item) {
	nr := g.Func.NumRegs()
	ks.itemOf = grow(ks.itemOf, nr)
	clear(ks.itemOf)
	ks.uses = grow(ks.uses, len(items))
	for i, it := range items {
		ks.uses[i] = ks.uses[i][:0]
		if it.Reg > 0 && int(it.Reg) < nr {
			ks.itemOf[it.Reg] = int32(i + 1)
		}
	}
	for _, n := range g.Nodes {
		if n.Instr == nil {
			continue
		}
		for _, u := range n.Instr.Uses() {
			if u <= 0 || int(u) >= nr || ks.itemOf[u] == 0 {
				continue
			}
			i := ks.itemOf[u] - 1
			// A node reading the register through several operands counts
			// once, matching UseNodes' per-node dedupe.
			if l := ks.uses[i]; len(l) == 0 || l[len(l)-1] != n.ID {
				ks.uses[i] = append(l, n.ID)
			}
		}
	}
}

// SelectKillsInto runs the kill selection SelectKills documents with every
// buffer in the scratch: use lists come from PrecomputeUses, node depths
// from the caller (depth must equal g.Depths() for the current graph), and
// the greedy minimum cover runs over slice-backed candidate tables. The cover's
// (cover, depth, node-id) selection key is a total order, so every pick is
// deterministic. The returned slice is owned by the scratch — valid until
// the next call.
func SelectKillsInto(g *dag.Graph, items []Item, reach *order.Relation, depth []int, ks *KillScratch) []int {
	n := len(items)
	ks.kill = grow(ks.kill, n)
	kill := ks.kill
	nn := g.NumNodes()
	ks.candIdx = grow(ks.candIdx, nn)
	candIdx := ks.candIdx
	clear(candIdx)
	ks.candNode = ks.candNode[:0]
	ks.remaining = grow(ks.remaining, n)
	remaining := ks.remaining
	nRemaining := 0
	for i := range ks.candItems {
		ks.candItems[i] = ks.candItems[i][:0]
	}

	for i, it := range items {
		kill[i] = -1
		remaining[i] = false
		if g.LiveOut[it.Reg] {
			continue
		}
		uses := ks.uses[i]
		maximal := ks.maximal[:0]
		for _, u := range uses {
			isMax := true
			for _, w := range uses {
				if w != u && reach.Has(u, w) {
					isMax = false
					break
				}
			}
			if isMax {
				maximal = append(maximal, u)
			}
		}
		ks.maximal = maximal
		if len(maximal) == 0 {
			continue
		}
		remaining[i] = true
		nRemaining++
		for _, u := range maximal {
			ci := candIdx[u] - 1
			if ci < 0 {
				ci = len(ks.candNode)
				candIdx[u] = ci + 1
				ks.candNode = append(ks.candNode, u)
				if ci == len(ks.candItems) {
					ks.candItems = append(ks.candItems, nil)
				}
			}
			ks.candItems[ci] = append(ks.candItems[ci], i)
		}
	}

	ks.candDead = grow(ks.candDead, len(ks.candNode))
	dead := ks.candDead
	for i := range dead {
		dead[i] = false
	}
	for nRemaining > 0 {
		best, bestCover := -1, -1
		for ci, u := range ks.candNode {
			if dead[ci] {
				continue
			}
			cover := 0
			for _, i := range ks.candItems[ci] {
				if remaining[i] {
					cover++
				}
			}
			if cover == 0 {
				continue
			}
			if cover > bestCover ||
				(cover == bestCover && (depth[u] > depth[best] ||
					(depth[u] == depth[best] && u < best))) {
				best, bestCover = u, cover
			}
		}
		if best == -1 {
			break
		}
		bi := candIdx[best] - 1
		for _, i := range ks.candItems[bi] {
			if remaining[i] {
				kill[i] = best
				remaining[i] = false
				nRemaining--
			}
		}
		dead[bi] = true
	}
	return kill
}

// UpdateClosureInto derives the reuse structure of the graph after
// sequencing edges were added, given reach — the graph's updated
// node-reachability closure, typically maintained in place via
// order.Relation.AddClosureEdge. Sequencing adds no instructions and
// removes no uses, so the item set is unchanged. dst receives the updated
// structure, always: it shares Items with r, and dst.Rel must already hold
// a cleared relation over len(r.Items) items (the evaluator keeps one per
// worker and Resets it between candidates). The result equals a rebuild on
// the mutated graph, relation and kills alike.
//
// For functional-unit resources CanReuse_FU is reachability restricted to
// the items, so the order can only gain pairs. For register resources the
// kill selection is recomputed against the new closure first (depth must
// equal g.Depths() for the current graph; the scratch must have
// PrecomputeUses run for this item set). Added reachability can demote a
// use from maximal or shift the greedy minimum cover.
//
// UpdateClosureInto reports whether the kill vector is unchanged. If it
// is, dst shares r.Kill and CanReuse_R only gained pairs, so a matching of
// r's order is still a matching of dst's. If the kills moved, dst.Kill is
// the selection just made: it is owned by ks and valid only until ks's
// next kill selection, and r's matching may not be a matching of dst's
// order.
func (r *Reuse) UpdateClosureInto(g *dag.Graph, reach *order.Relation, depth []int, ks *KillScratch, dst *Reuse) bool {
	kill, same := r.Kill, true
	if r.IsReg {
		kill = SelectKillsInto(g, r.Items, reach, depth, ks)
		same = slices.Equal(kill, r.Kill)
		if same {
			kill = r.Kill
		}
	}

	rel := dst.Rel
	*dst = Reuse{
		Graph: g,
		Items: r.Items,
		Rel:   rel,
		Kill:  kill,
		IsReg: r.IsReg,
		Class: r.Class,
	}
	fillRel(rel, r.Items, kill, reach, &ks.ix)
	return same
}

// grow returns a length-n slice reusing s's storage when possible. The
// contents are unspecified; callers overwrite or clear them.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
