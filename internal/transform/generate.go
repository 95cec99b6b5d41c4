package transform

import (
	"fmt"
	"sort"

	"ursa/internal/dag"
	"ursa/internal/ir"
	"ursa/internal/measure"
	"ursa/internal/order"
)

// FUCandidates generates sequentialization candidates for a functional-unit
// excessive chain set (§4.1). The primary candidate applies "ideal sequence
// matching": with X excess chains, the i-th edge runs from the chain tail
// i-th closest to the hammock's entry to the chain head i-th closest to the
// entry, averaging the lengths of the resulting entry-to-exit paths. A
// handful of single-edge variants are also produced so the driver's scoring
// can pick a less aggressive reduction when that preserves the critical
// path better.
//
// reach is g's transitive closure and depth its node depths (Graph.Depths);
// the caller computes both once per graph state and shares them across
// resources and excess sets.
func FUCandidates(g *dag.Graph, reach *order.Relation, depth []int, res *measure.Result, set *measure.ExcessSet) []*Candidate {
	items := res.R.Items
	type end struct{ chain, node int }

	var tails, heads []end
	for ci, c := range set.Chains {
		h := items[c[0]].Node
		t := items[c[len(c)-1]].Node
		if h != g.Root {
			heads = append(heads, end{ci, h})
		}
		if t != g.Root {
			tails = append(tails, end{ci, t})
		}
	}
	sort.Slice(tails, func(i, j int) bool {
		if depth[tails[i].node] != depth[tails[j].node] {
			return depth[tails[i].node] < depth[tails[j].node]
		}
		return tails[i].node < tails[j].node
	})
	sort.Slice(heads, func(i, j int) bool {
		if depth[heads[i].node] != depth[heads[j].node] {
			return depth[heads[i].node] < depth[heads[j].node]
		}
		return heads[i].node < heads[j].node
	})

	feasible := func(t, h end) bool {
		return t.chain != h.chain && t.node != h.node && !reach.Has(h.node, t.node)
	}

	x := set.Excess()
	var ideal [][2]int
	usedTail := make(map[int]bool)
	usedHead := make(map[int]bool)
	// Pair i-th closest tail with i-th closest head; on failure advance the
	// head toward the exit (the paper's retry: replace a node with one
	// closer to the entry until the test passes).
	for _, t := range tails {
		if len(ideal) == x {
			break
		}
		if usedTail[t.chain] {
			continue
		}
		for _, h := range heads {
			if usedHead[h.chain] || usedTail[h.chain] || usedHead[t.chain] {
				continue
			}
			if feasible(t, h) {
				ideal = append(ideal, [2]int{t.node, h.node})
				usedTail[t.chain] = true
				usedHead[h.chain] = true
				break
			}
		}
	}

	var cands []*Candidate
	if len(ideal) > 0 {
		cands = append(cands, &Candidate{
			Kind:  FUSequence,
			Edges: ideal,
			Note:  fmt.Sprintf("ideal sequence matching, %d edges", len(ideal)),
		})
	}
	// Single-edge variants.
	n := 0
	for _, t := range tails {
		for _, h := range heads {
			if feasible(t, h) {
				cands = append(cands, &Candidate{
					Kind:  FUSequence,
					Edges: [][2]int{{t.node, h.node}},
					Note:  fmt.Sprintf("%s->%s", g.Nodes[t.node].Name, g.Nodes[h.node].Name),
				})
				n++
				if n >= 6 {
					return cands
				}
			}
		}
	}
	if len(cands) > 0 {
		return cands
	}
	// Fallback for heavily transformed DAGs where no tail->head merge is
	// feasible: the trimmed chain heads are mutually independent by
	// Definition 6, i.e. they form an antichain as wide as the excess set.
	// Sequencing those heads directly destroys that antichain (§4.1's
	// "add sequential dependence edges to sequentialize independent nodes
	// in the excessive chain set").
	headsOnly := make([]int, 0, len(set.Chains))
	for _, c := range set.Chains {
		h := items[c[0]].Node
		if h != g.Root {
			headsOnly = append(headsOnly, h)
		}
	}
	sort.Slice(headsOnly, func(i, j int) bool {
		if depth[headsOnly[i]] != depth[headsOnly[j]] {
			return depth[headsOnly[i]] < depth[headsOnly[j]]
		}
		return headsOnly[i] < headsOnly[j]
	})
	chainEdges := func(ns []int) [][2]int {
		var es [][2]int
		for i := 0; i+1 < len(ns); i++ {
			es = append(es, [2]int{ns[i], ns[i+1]})
		}
		return es
	}
	if len(headsOnly) > x {
		if es := chainEdges(headsOnly[:x+1]); len(es) > 0 {
			cands = append(cands, &Candidate{Kind: FUSequence, Edges: es,
				Note: fmt.Sprintf("serialize %d antichain heads", x+1)})
		}
	}
	if len(headsOnly) > 2 {
		if es := chainEdges(headsOnly); len(es) > 0 {
			cands = append(cands, &Candidate{Kind: FUSequence, Edges: es,
				Note: fmt.Sprintf("serialize all %d antichain heads", len(headsOnly))})
		}
	}
	// Last resort: sequence the first independent cross-chain pair found,
	// scanning from chain tails toward heads.
	for i, ci := range set.Chains {
		for j, cj := range set.Chains {
			if i == j {
				continue
			}
			for x := len(ci) - 1; x >= 0 && n < 6; x-- {
				a := items[ci[x]].Node
				if a == g.Root {
					continue
				}
				for y := 0; y < len(cj); y++ {
					b := items[cj[y]].Node
					if b == g.Root || a == b || reach.Has(a, b) || reach.Has(b, a) {
						continue
					}
					cands = append(cands, &Candidate{
						Kind:  FUSequence,
						Edges: [][2]int{{a, b}},
						Note:  fmt.Sprintf("mid %s->%s", g.Nodes[a].Name, g.Nodes[b].Name),
					})
					n++
					break
				}
			}
			if n >= 6 {
				return cands
			}
		}
	}
	return cands
}

// chainNodes maps an item chain to its producer nodes, skipping the root
// (live-in items cannot be moved).
func chainNodes(res *measure.Result, c []int) []int {
	var out []int
	for _, it := range c {
		n := res.R.Items[it].Node
		if n != res.R.Graph.Root {
			out = append(out, n)
		}
	}
	return out
}

// nonsupporting reports whether no DAG edge runs from any node of a to any
// node of b (Definition 7: a is nonsupporting of b means no edges a -> b;
// here we check "from" as the paper's SD2 -> SD1 direction).
func nonsupporting(g *dag.Graph, from, to []int) bool {
	toSet := make(map[int]bool, len(to))
	for _, n := range to {
		toSet[n] = true
	}
	for _, n := range from {
		for _, s := range g.Succs(n) {
			if toSet[s] {
				return false
			}
		}
	}
	return true
}

// sd1Ends returns the roots and leaves of the sub-DAG induced by nodes:
// roots have no predecessor inside the set, leaves no successor inside.
func sd1Ends(g *dag.Graph, nodes []int) (roots, leaves []int) {
	set := make(map[int]bool, len(nodes))
	for _, n := range nodes {
		set[n] = true
	}
	for _, n := range nodes {
		hasPred, hasSucc := false, false
		for _, p := range g.Preds(n) {
			if set[p] {
				hasPred = true
			}
		}
		for _, s := range g.Succs(n) {
			if set[s] {
				hasSucc = true
			}
		}
		if !hasPred {
			roots = append(roots, n)
		}
		if !hasSucc {
			leaves = append(leaves, n)
		}
	}
	return roots, leaves
}

// releaseNodes returns, for the given chains, the kill node of each chain's
// last item: the node whose execution frees the register that chain holds.
// Chains whose last item is killed at the leaf (live-out) release nothing
// and are skipped. The result is deduplicated and sorted deepest-first by
// depth, the graph's node depths.
func releaseNodes(g *dag.Graph, depth []int, res *measure.Result, chains []order.Chain) []int {
	seen := make(map[int]bool)
	var out []int
	for _, c := range chains {
		last := c[len(c)-1]
		if res.R.Kill == nil {
			// FU items: the resource frees when the tail itself completes.
			n := res.R.Items[last].Node
			if n != g.Root && !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
			continue
		}
		k := res.R.Kill[last]
		if k >= 0 && k != g.Root && !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if depth[out[i]] != depth[out[j]] {
			return depth[out[i]] > depth[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}

// RegSeqCandidates generates register sequentialization candidates (§4.2):
// choose SD2 (the chains to delay, preferring those whose heads sit deepest
// so delaying them costs the least) and add sequence edges from set S — the
// release nodes that free SD1's registers (the kills of SD1's chain tails)
// — to set T, the producer nodes of SD2's chain heads. Figure 3(b) is the
// shape S={I} (the kill of t1 and t2), T={G,H}. reach and depth are as
// for FUCandidates.
func RegSeqCandidates(g *dag.Graph, reach *order.Relation, depth []int, res *measure.Result, set *measure.ExcessSet) []*Candidate {
	x := set.Excess()
	if x < 1 || len(set.Chains) < 2 {
		return nil
	}

	// Order chains by head depth descending: deepest heads delayed first.
	idx := make([]int, len(set.Chains))
	for i := range idx {
		idx[i] = i
	}
	headNode := func(ci int) int {
		ns := chainNodes(res, set.Chains[ci])
		if len(ns) == 0 {
			return -1
		}
		return ns[0]
	}
	sort.Slice(idx, func(a, b int) bool {
		ha, hb := headNode(idx[a]), headNode(idx[b])
		if (ha == -1) != (hb == -1) {
			return hb == -1
		}
		if ha == -1 {
			return idx[a] < idx[b]
		}
		if depth[ha] != depth[hb] {
			return depth[ha] > depth[hb]
		}
		return ha < hb
	})

	var cands []*Candidate
	build := func(k int) {
		sd2Set := make(map[int]bool, k)
		var tNodes []int
		var sd2 []int
		for _, ci := range idx[:k] {
			ns := chainNodes(res, set.Chains[ci])
			if len(ns) == 0 {
				return
			}
			sd2Set[ci] = true
			tNodes = append(tNodes, ns[0])
			sd2 = append(sd2, ns...)
		}
		var sd1Chains []order.Chain
		var sd1 []int
		for ci, c := range set.Chains {
			if !sd2Set[ci] {
				sd1Chains = append(sd1Chains, c)
				sd1 = append(sd1, chainNodes(res, c)...)
			}
		}
		if len(sd1) == 0 || !nonsupporting(g, sd2, sd1) {
			return
		}
		rel := releaseNodes(g, depth, res, sd1Chains)
		if len(rel) == 0 {
			return
		}
		sort.Ints(tNodes)
		mkEdges := func(ss []int) [][2]int {
			var es [][2]int
			for _, t := range tNodes {
				for _, s := range ss {
					if s != t && !reach.Has(t, s) && !reach.Has(s, t) {
						es = append(es, [2]int{s, t})
					}
				}
			}
			return es
		}
		// Candidate S sets of increasing aggressiveness: a single shallow
		// release (cheapest barrier), a single deep release, and all
		// releases (stage barrier). The driver's scoring keeps the variant
		// with the best excess/critical-path trade-off.
		if es := mkEdges(rel[:1]); len(es) > 0 {
			cands = append(cands, &Candidate{Kind: RegSequence, Edges: es,
				Note: fmt.Sprintf("delay %d chains after %s", k, g.Nodes[rel[0]].Name)})
		}
		if len(rel) > 1 {
			shallow := rel[len(rel)-1:]
			if es := mkEdges(shallow); len(es) > 0 {
				cands = append(cands, &Candidate{Kind: RegSequence, Edges: es,
					Note: fmt.Sprintf("delay %d chains after %s", k, g.Nodes[shallow[0]].Name)})
			}
			if es := mkEdges(rel); len(es) > 0 {
				cands = append(cands, &Candidate{Kind: RegSequence, Edges: es,
					Note: fmt.Sprintf("delay %d chains after all releases", k)})
			}
		}
	}

	maxK := x + 2
	if maxK > len(set.Chains)-1 {
		maxK = len(set.Chains) - 1
	}
	for k := 1; k <= maxK; k++ {
		build(k)
	}
	if len(cands) > 0 {
		return cands
	}
	// Fallback: the trimmed chain heads form an antichain of the register
	// reuse order. Serialize their lifetimes: each head's producer waits
	// for the previous head's kill, so their registers pass down the line.
	heads := make([]int, 0, len(set.Chains))
	for _, c := range set.Chains {
		heads = append(heads, c[0])
	}
	sort.Slice(heads, func(a, b int) bool {
		na, nb := res.R.Items[heads[a]].Node, res.R.Items[heads[b]].Node
		if depth[na] != depth[nb] {
			return depth[na] < depth[nb]
		}
		return na < nb
	})
	var serial [][2]int
	prev := -1
	for _, h := range heads {
		node := res.R.Items[h].Node
		kill := -1
		if res.R.Kill != nil {
			kill = res.R.Kill[h]
		}
		if prev >= 0 && node != g.Root && prev != node && !reach.Has(node, prev) {
			serial = append(serial, [2]int{prev, node})
		}
		if kill >= 0 && kill != g.Root {
			prev = kill
		}
	}
	if len(serial) > 0 {
		cands = append(cands, &Candidate{Kind: RegSequence, Edges: serial,
			Note: fmt.Sprintf("serialize %d head lifetimes", len(heads))})
	}
	// Last resort: merge two chains by sequencing one chain's release
	// before another chain's mid-chain producer.
	n := 0
	for i, ci := range set.Chains {
		for j, cj := range set.Chains {
			if i == j {
				continue
			}
			for x := len(ci) - 1; x >= 0 && n < 6; x-- {
				ai := ci[x]
				kill := -1
				if res.R.Kill != nil {
					kill = res.R.Kill[ai]
				}
				if kill < 0 || kill == g.Root {
					continue
				}
				for y := 0; y < len(cj); y++ {
					b := res.R.Items[cj[y]].Node
					if b == g.Root || b == kill || reach.Has(b, kill) || reach.Has(kill, b) {
						continue
					}
					cands = append(cands, &Candidate{
						Kind:  RegSequence,
						Edges: [][2]int{{kill, b}},
						Note: fmt.Sprintf("mid release %s->%s",
							g.Nodes[kill].Name, g.Nodes[b].Name),
					})
					n++
					break
				}
			}
			if n >= 6 {
				return cands
			}
		}
	}
	return cands
}

// CopySpillCandidates generates copy-spill candidates for clustered
// machines: every inter-cluster copy appearing in the excess set — as a
// transfer-bus instruction (XFER functional-unit items) or through the
// destination register it defines (register items whose producer is a copy)
// — can be rerouted through memory, trading the bus slot and the
// destination register's bus-to-kill lifetime for a spill store/load pair.
// The reduction loop prices both forms with the same measurements, so
// whichever resource binds decides copy versus spill.
func CopySpillCandidates(g *dag.Graph, res *measure.Result, set *measure.ExcessSet) []*Candidate {
	const maxCandidates = 8
	seen := make(map[int]bool)
	var cands []*Candidate
	for _, c := range set.Chains {
		for _, itIdx := range c {
			n := res.R.Items[itIdx].Node
			if n == g.Root || seen[n] {
				continue
			}
			in := g.Nodes[n].Instr
			if in == nil || !in.IsCopy() {
				continue
			}
			seen[n] = true
			cands = append(cands, &Candidate{
				Kind:      CopySpill,
				CopySpill: &CopySpillSpec{Copy: n},
				Note:      "copy-spill " + g.Func.NameOf(in.Dst),
			})
			if len(cands) >= maxCandidates {
				return cands
			}
		}
	}
	return cands
}

// SpillCandidates generates spill-insertion candidates (§4.3): for each
// excess chain, spill its head value right after definition and reload it
// once the other chains (SD1) have finished. Unlike sequencing, the relaxed
// conditions mean a spill can always be found (the paper's guarantee), so
// these candidates also serve as the fallback when sequencing fails. depth
// is g's node depths (Graph.Depths).
func SpillCandidates(g *dag.Graph, depth []int, res *measure.Result, set *measure.ExcessSet) []*Candidate {
	const maxCandidates = 16
	f := g.Func
	var cands []*Candidate
	for ci, c := range set.Chains {
		var sd1Chains []order.Chain
		var sd1 []int
		for cj, c2 := range set.Chains {
			if cj != ci {
				sd1Chains = append(sd1Chains, c2)
				sd1 = append(sd1, chainNodes(res, c2)...)
			}
		}
		if len(sd1) == 0 {
			continue
		}
		roots, _ := sd1Ends(g, sd1)
		// The reload waits for the nodes that free SD1's registers.
		barrier := releaseNodes(g, depth, res, sd1Chains)
		if len(barrier) == 0 {
			continue
		}
		// Any value on the chain is a spill candidate; heads first.
		for _, itIdx := range c {
			it := res.R.Items[itIdx]
			if it.Reg == ir.NoReg || it.Node == g.Root || g.LiveOut[it.Reg] {
				continue
			}
			if len(g.UseNodes(it.Reg)) == 0 {
				continue
			}
			cands = append(cands, &Candidate{
				Kind: Spill,
				Spill: &SpillSpec{
					Reg:      it.Reg,
					Def:      it.Node,
					Barrier:  barrier,
					PreRoots: roots,
				},
				Note: "spill " + f.NameOf(it.Reg),
			})
			if len(cands) >= maxCandidates {
				return cands
			}
		}
	}
	return cands
}
