package measure

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"ursa/internal/dag"
	"ursa/internal/ir"
	"ursa/internal/reuse"
	"ursa/internal/workload"
)

// listMatcher is the adjacency-list Kuhn matcher the prioritized chain
// decomposition used before it ran on relation rows: edges are appended
// per left vertex in arrival order and tried in that order, with a visit
// stamp per right vertex.
type listMatcher struct {
	adj            [][]int
	matchL, matchR []int
	visit          []int
	stamp          int
}

func newListMatcher(n int) *listMatcher {
	m := &listMatcher{adj: make([][]int, n), matchL: make([]int, n), matchR: make([]int, n), visit: make([]int, n)}
	for i := 0; i < n; i++ {
		m.matchL[i], m.matchR[i] = -1, -1
	}
	return m
}

func (m *listMatcher) augment() {
	for l := range m.adj {
		if m.matchL[l] == -1 {
			m.stamp++
			m.try(l)
		}
	}
}

func (m *listMatcher) try(l int) bool {
	for _, r := range m.adj[l] {
		if m.visit[r] == m.stamp {
			continue
		}
		m.visit[r] = m.stamp
		if m.matchR[r] == -1 || m.try(m.matchR[r]) {
			m.matchL[l], m.matchR[r] = r, l
			return true
		}
	}
	return false
}

// listChains is the former Chains: every reuse pair sorted by (priority,
// a, b), priority the producers' nesting-level difference, fed to the
// list matcher one priority batch at a time with augmentation after each,
// and the matching turned into chains headed by right-unmatched items,
// sorted by head producer.
func listChains(r *reuse.Reuse, levels []int) ([][]int, []int) {
	type edge struct{ a, b, prio int }
	var edges []edge
	for a := 0; a < r.NumItems(); a++ {
		r.Rel.Row(a).ForEach(func(b int) {
			prio := 0
			if levels != nil {
				prio = levels[r.Items[a].Node] - levels[r.Items[b].Node]
				if prio < 0 {
					prio = -prio
				}
			}
			edges = append(edges, edge{a, b, prio})
		})
	}
	slices.SortFunc(edges, func(x, y edge) int {
		if x.prio != y.prio {
			return x.prio - y.prio
		}
		if x.a != y.a {
			return x.a - y.a
		}
		return x.b - y.b
	})
	n := r.NumItems()
	m := newListMatcher(n)
	for i := 0; i < len(edges); {
		j := i
		for j < len(edges) && edges[j].prio == edges[i].prio {
			m.adj[edges[j].a] = append(m.adj[edges[j].a], edges[j].b)
			j++
		}
		m.augment()
		i = j
	}
	var chains [][]int
	for h := 0; h < n; h++ {
		if m.matchR[h] != -1 {
			continue
		}
		var c []int
		for x := h; x != -1; x = m.matchL[x] {
			c = append(c, x)
		}
		chains = append(chains, c)
	}
	sort.Slice(chains, func(i, j int) bool {
		return r.Items[chains[i][0]].Node < r.Items[chains[j][0]].Node
	})
	chainOf := make([]int, n)
	for ci, c := range chains {
		for _, it := range c {
			chainOf[it] = ci
		}
	}
	return chains, chainOf
}

// TestChainsMatchListMatcher: the bitset matcher's prioritized batches
// explore a left item's neighbours level band by level band, in the order
// the list matcher's (priority, a, b)-sorted adjacency held them, so
// Chains finds the very decomposition the list matcher found — every
// chain and every ChainOf entry — on random blocks and on suite kernels,
// with hammock levels and without.
func TestChainsMatchListMatcher(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var graphs []*dag.Graph
	for trial := 0; trial < 80; trial++ {
		g, err := dag.Build(randomBlock(rng, 4+rng.Intn(70)).Blocks[0])
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		graphs = append(graphs, g)
	}
	for _, name := range []string{"hydro", "fft2", "dot"} {
		k := workload.KernelByName(name)
		if k == nil {
			t.Fatalf("kernel %s missing", name)
		}
		for _, u := range []int{1, 2, 4} {
			unit, err := k.Unit(u)
			if err != nil {
				t.Fatalf("%s x%d: %v", name, u, err)
			}
			for _, b := range unit.Func.Blocks {
				g, err := dag.Build(b)
				if err != nil {
					t.Fatalf("%s x%d: %v", name, u, err)
				}
				graphs = append(graphs, g)
			}
		}
	}
	crossing := 0
	for gi, g := range graphs {
		levels := g.NestLevels(g.Hammocks())
		for _, r := range []*reuse.Reuse{
			reuse.FU(g, reuse.AllFUs),
			reuse.FU(g, reuse.KindFUs(ir.KindMem)),
			reuse.Reg(g, ir.ClassInt),
			reuse.Reg(g, ir.ClassFP),
		} {
			for _, lv := range [][]int{levels, nil} {
				res := Chains(r, lv)
				chains, chainOf := listChains(r, lv)
				var got [][]int
				for _, c := range res.Chains {
					got = append(got, c)
				}
				if !reflect.DeepEqual(got, chains) || !reflect.DeepEqual(res.ChainOf, chainOf) {
					t.Fatalf("graph %d, %s: bitset chains %v, list chains %v", gi, r, got, chains)
				}
			}
			for a := 0; a < r.NumItems(); a++ {
				r.Rel.Row(a).ForEach(func(b int) {
					if levels[r.Items[a].Node] != levels[r.Items[b].Node] {
						crossing++
					}
				})
			}
		}
	}
	if crossing == 0 {
		t.Fatal("no reuse pair crossed nesting levels: the priority batches went untested")
	}
}
