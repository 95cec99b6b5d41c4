package cache

import (
	"reflect"
	"testing"
)

// order lists the keys most recently used first, walking the list both
// ways to check its links agree with the map.
func order(t *testing.T, l *LRU[string, int]) []string {
	t.Helper()
	var fwd []string
	for n := l.head; n != nil; n = n.next {
		fwd = append(fwd, n.key)
	}
	var back []string
	for n := l.tail; n != nil; n = n.prev {
		back = append([]string{n.key}, back...)
	}
	if !reflect.DeepEqual(fwd, back) || len(fwd) != l.Len() {
		t.Fatalf("list links disagree: forward %v, backward %v, %d entries", fwd, back, l.Len())
	}
	return fwd
}

func TestLRU(t *testing.T) {
	type op struct {
		do   string // "put", "get" or "remove"
		key  string
		size int64
		ok   bool // Put's or Get's result
	}
	cases := []struct {
		name    string
		budget  int64
		ops     []op
		order   []string // most recently used first
		bytes   int64
		evicted []string // callback calls, in order
	}{
		{
			name:   "recency order",
			budget: 100,
			ops: []op{
				{"put", "a", 1, true}, {"put", "b", 1, true}, {"put", "c", 1, true},
				{"get", "a", 0, true}, {"get", "x", 0, false},
			},
			order: []string{"a", "c", "b"},
			bytes: 3,
		},
		{
			name:   "budget evicts least recently used",
			budget: 10,
			ops: []op{
				{"put", "a", 4, true}, {"put", "b", 4, true}, {"get", "a", 0, true},
				{"put", "c", 4, true}, {"get", "b", 0, false},
			},
			order:   []string{"c", "a"},
			bytes:   8,
			evicted: []string{"b"},
		},
		{
			name:   "oversize refused, nothing evicted",
			budget: 10,
			ops: []op{
				{"put", "a", 4, true}, {"put", "big", 11, false}, {"get", "big", 0, false},
				{"put", "a", 11, false}, {"get", "a", 0, true},
			},
			order: []string{"a"},
			bytes: 4,
		},
		{
			name:   "re-put corrects the byte total",
			budget: 10,
			ops: []op{
				{"put", "a", 4, true}, {"put", "b", 4, true}, {"put", "a", 2, true},
				{"put", "a", 6, true}, {"put", "c", 1, true},
			},
			order:   []string{"c", "a"},
			bytes:   7,
			evicted: []string{"b"},
		},
		{
			name:   "callback once per victim",
			budget: 10,
			ops: []op{
				{"put", "a", 3, true}, {"put", "b", 3, true}, {"put", "c", 3, true},
				{"put", "d", 9, true}, {"remove", "d", 0, false}, {"put", "e", 10, true},
			},
			order:   []string{"e"},
			bytes:   10,
			evicted: []string{"a", "b", "c"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var evicted []string
			l := NewLRU(tc.budget, func(k string, v int) {
				if v != len(k) {
					t.Errorf("callback for %q got value %d; want %d", k, v, len(k))
				}
				evicted = append(evicted, k)
			})
			for i, o := range tc.ops {
				switch o.do {
				case "put":
					if ok := l.Put(o.key, len(o.key), o.size); ok != o.ok {
						t.Fatalf("op %d: Put(%q, %d) = %v; want %v", i, o.key, o.size, ok, o.ok)
					}
					if l.Bytes() > tc.budget {
						t.Fatalf("op %d: %d bytes exceed budget %d", i, l.Bytes(), tc.budget)
					}
				case "get":
					if v, ok := l.Get(o.key); ok != o.ok || (ok && v != len(o.key)) {
						t.Fatalf("op %d: Get(%q) = %d, %v; want ok %v", i, o.key, v, ok, o.ok)
					}
				case "remove":
					l.Remove(o.key)
				}
				var sum int64
				for _, n := range l.entries {
					sum += n.size
				}
				if sum != l.Bytes() {
					t.Fatalf("op %d: Bytes() = %d; entries sum to %d", i, l.Bytes(), sum)
				}
			}
			if got := order(t, l); !reflect.DeepEqual(got, tc.order) {
				t.Errorf("order = %v; want %v", got, tc.order)
			}
			if l.Bytes() != tc.bytes {
				t.Errorf("bytes = %d; want %d", l.Bytes(), tc.bytes)
			}
			if !reflect.DeepEqual(evicted, tc.evicted) {
				t.Errorf("evicted = %v; want %v", evicted, tc.evicted)
			}
			if l.Evictions() != uint64(len(tc.evicted)) {
				t.Errorf("Evictions() = %d; want %d", l.Evictions(), len(tc.evicted))
			}
		})
	}
}
