package measure

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ursa/internal/dag"
	"ursa/internal/ir"
	"ursa/internal/order"
	"ursa/internal/reuse"
	"ursa/internal/workload"
)

// restartingTrim is the head/tail trim the comparability bitsets replaced,
// kept as the reference: after every trim it rescans all pairs of heads
// from the start, then all pairs of tails.
func restartingTrim(proj []order.Chain, rel *order.Relation) []order.Chain {
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(proj) && !changed; i++ {
			for j := 0; j < len(proj) && !changed; j++ {
				if i == j {
					continue
				}
				hi, hj := proj[i][0], proj[j][0]
				if rel.Comparable(hi, hj) {
					vic := i
					if rel.Has(hj, hi) {
						vic = j
					}
					proj[vic] = proj[vic][1:]
					if len(proj[vic]) == 0 {
						proj = append(proj[:vic], proj[vic+1:]...)
					}
					changed = true
				}
			}
		}
		if changed {
			continue
		}
		for i := 0; i < len(proj) && !changed; i++ {
			for j := 0; j < len(proj) && !changed; j++ {
				if i == j {
					continue
				}
				ti, tj := proj[i][len(proj[i])-1], proj[j][len(proj[j])-1]
				if rel.Comparable(ti, tj) {
					vic := j
					if rel.Has(tj, ti) {
						vic = i
					}
					proj[vic] = proj[vic][:len(proj[vic])-1]
					if len(proj[vic]) == 0 {
						proj = append(proj[:vic], proj[vic+1:]...)
					}
					changed = true
				}
			}
		}
	}
	return proj
}

// randomChainOrder returns a strict partial order over items made of k
// chains of 1 to 6 items each, plus cross pairs of the given density,
// closed. Items get a random global rank consistent with their chain's
// order, and every pair runs from a lower to a higher rank, so the order is
// acyclic. Item i is produced by node i; the hammock holds each node with
// probability in, so some chains project partly or not at all.
func randomChainOrder(rng *rand.Rand, k int, density, in float64) (*Result, *dag.Hammock) {
	var chains []order.Chain
	n := 0
	for c := 0; c < k; c++ {
		l := 1 + rng.Intn(6)
		chains = append(chains, make(order.Chain, l))
		n += l
	}
	perm := rng.Perm(n)
	rank := make([]int, n)
	for i := range rank {
		rank[i] = rng.Intn(4 * n)
	}
	rel := order.NewRelation(n)
	p := 0
	for _, c := range chains {
		for x := range c {
			c[x] = perm[p]
			p++
		}
		slices.SortFunc(c, func(a, b int) int { return rank[a] - rank[b] })
		for x := 1; x < len(c); x++ {
			rank[c[x]] = max(rank[c[x]], rank[c[x-1]]+1)
			rel.Add(c[x-1], c[x])
		}
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if rank[a] < rank[b] && rng.Float64() < density {
				rel.Add(a, b)
			}
		}
	}
	rel = rel.TransitiveClosure()
	items := make([]reuse.Item, n)
	interior := order.NewBitSet(n)
	for i := range items {
		items[i] = reuse.Item{Node: i}
		if rng.Float64() < in {
			interior.Set(i)
		}
	}
	res := &Result{R: &reuse.Reuse{Items: items, Rel: rel}, Chains: chains, Width: k}
	return res, &dag.Hammock{Interior: interior}
}

// TestTrimMatchesRestartingScan: the incremental trim leaves exactly the
// excessive chain set the restarting scan left — the same chains, trimmed
// to the same heads and tails, in the same order — on random strict
// partial orders with 1 to 130 chains, sparse to dense, at every limit
// class: none, below and above the trimmed count.
func TestTrimMatchesRestartingScan(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var s ExcessScratch
	trimmed, sets := 0, 0
	for trial := 0; trial < 600; trial++ {
		k := 1 + rng.Intn(130)
		density := []float64{0, 0.002, 0.02, 0.1, 0.4}[rng.Intn(5)]
		in := []float64{1, 0.9, 0.5}[rng.Intn(3)]
		res, h := randomChainOrder(rng, k, density, in)
		var proj []order.Chain
		for _, c := range res.Chains {
			var p order.Chain
			for _, it := range c {
				if h.Contains(it) {
					p = append(p, it)
				}
			}
			if len(p) > 0 {
				proj = append(proj, p)
			}
		}
		want := restartingTrim(slices.Clone(proj), res.R.Rel)
		for _, c := range proj {
			trimmed += len(c)
		}
		for _, c := range want {
			trimmed -= len(c)
		}
		for _, limit := range []int{0, len(want) - 1, len(want), rng.Intn(k + 1)} {
			if limit < 0 {
				continue
			}
			set := excessInHammock(res, h, limit, &s)
			if len(want) <= limit {
				if set != nil {
					t.Fatalf("trial %d limit %d: found %d chains, the restarting scan left %d", trial, limit, len(set.Chains), len(want))
				}
				continue
			}
			sets++
			if set == nil || !reflect.DeepEqual(set.Chains, want) {
				t.Fatalf("trial %d (%d chains, density %v) limit %d: trimmed to %v, the restarting scan to %v",
					trial, k, density, limit, set, want)
			}
		}
	}
	if trimmed == 0 || sets == 0 {
		t.Fatalf("%d items trimmed, %d sets compared: the trim went untested", trimmed, sets)
	}
	t.Logf("%d sets compared, %d items trimmed", sets, trimmed)
}

// TestInnerOuterMatchesFindExcess: the innermost and outermost sets are
// FindExcess's first and last, on random blocks and suite kernels at every
// limit below the width.
func TestInnerOuterMatchesFindExcess(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	var graphs []*dag.Graph
	for trial := 0; trial < 40; trial++ {
		g, err := dag.Build(randomBlock(rng, 6+rng.Intn(40)).Blocks[0])
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		graphs = append(graphs, g)
	}
	for _, name := range []string{"hydro", "state"} {
		unit, err := workload.KernelByName(name).Unit(2)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range unit.Func.Blocks {
			g, err := dag.Build(b)
			if err != nil {
				t.Fatal(err)
			}
			graphs = append(graphs, g)
		}
	}
	var s ExcessScratch
	pairs := 0
	for gi, g := range graphs {
		hs := g.Hammocks()
		for _, r := range []*reuse.Reuse{reuse.FU(g, reuse.AllFUs), reuse.Reg(g, ir.ClassInt)} {
			res := Measure(r)
			for limit := 0; limit < res.Width; limit++ {
				sets := FindExcess(res, hs, limit)
				inner, outer := InnerOuter(res, hs, limit, &s)
				var want [2]*ExcessSet
				if len(sets) > 0 {
					want[0] = sets[0]
				}
				if len(sets) > 1 {
					want[1] = sets[len(sets)-1]
					pairs++
				}
				if !reflect.DeepEqual([2]*ExcessSet{inner, outer}, want) {
					t.Fatalf("graph %d %s limit %d: inner/outer %v %v, FindExcess %v", gi, r, limit, inner, outer, sets)
				}
			}
		}
	}
	if pairs == 0 {
		t.Fatal("no case had two excessive sets: the backward scan went untested")
	}
}
