package order

import "sync"

// intPool recycles []int scratch buffers for the order package's internal
// temporaries (topological sorts, member lists), so the measurement paths
// that run per tentative candidate do not allocate them fresh each time.
var intPool = sync.Pool{New: func() any { return new([]int) }}

// getInts returns a zero-length scratch slice with capacity at least n.
func getInts(n int) *[]int {
	p := intPool.Get().(*[]int)
	if cap(*p) < n {
		*p = make([]int, 0, n)
	}
	*p = (*p)[:0]
	return p
}

// putInts returns a scratch slice obtained from getInts.
func putInts(p *[]int) { intPool.Put(p) }
