package cache

import (
	"errors"
	"sync"
)

// Flight coalesces concurrent work for equal keys: the first caller of Do
// for a key becomes the leader and runs fn; callers arriving while the
// leader is in flight wait and share the leader's result. The zero value
// is ready to use.
//
// A leader that panics still releases its key: every waiter re-panics
// with the leader's value, and the next Do for the key runs fn afresh.
type Flight[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*call[V]
}

type call[V any] struct {
	done  chan struct{}
	val   V
	err   error
	panic any // the leader's panic value, re-raised in every waiter
}

// errGoexit is what waiters re-panic with when the leader's fn called
// runtime.Goexit, which leaves no value to re-raise.
var errGoexit = errors.New("cache: flight leader exited without returning")

// Do runs fn for key unless a call for key is already in flight, in which
// case it waits for that call's result. The third return reports whether
// this caller was the leader (i.e. fn actually ran here). Coalesced
// callers share one value, so they must treat it as immutable.
func (f *Flight[K, V]) Do(key K, fn func() (V, error)) (val V, err error, leader bool) {
	f.mu.Lock()
	if c, ok := f.calls[key]; ok {
		f.mu.Unlock()
		<-c.done
		if c.panic != nil {
			panic(c.panic)
		}
		return c.val, c.err, false
	}
	if f.calls == nil {
		f.calls = make(map[K]*call[V])
	}
	c := &call[V]{done: make(chan struct{})}
	f.calls[key] = c
	f.mu.Unlock()

	returned := false
	defer func() {
		var r any
		if !returned {
			if r = recover(); r != nil {
				c.panic = r
			} else {
				c.panic = errGoexit
			}
		}
		f.mu.Lock()
		delete(f.calls, key)
		f.mu.Unlock()
		close(c.done)
		if r != nil {
			panic(r)
		}
	}()
	c.val, c.err = fn()
	returned = true
	return c.val, c.err, true
}
