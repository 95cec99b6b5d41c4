package cache

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// lead starts a Do for key whose fn blocks until release is closed, then
// runs body. It returns once fn has started, so callers arriving later
// coalesce onto it.
func lead(f *Flight[string, int], key string, release chan struct{}, body func() (int, error)) {
	started := make(chan struct{})
	go func() {
		defer func() { _ = recover() }()
		f.Do(key, func() (int, error) {
			close(started)
			<-release
			return body()
		})
	}()
	<-started
}

// follow runs Do for key in a goroutine and reports its outcome: the
// value and error, or the panic it re-raised.
func follow(f *Flight[string, int], key string, fn func() (int, error)) <-chan any {
	out := make(chan any, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				out <- r
			}
		}()
		v, err, leader := f.Do(key, fn)
		out <- [3]any{v, err, leader}
	}()
	return out
}

func TestFlightCoalesces(t *testing.T) {
	var f Flight[string, int]
	var runs atomic.Int64
	release := make(chan struct{})
	lead(&f, "k", release, func() (int, error) { runs.Add(1); return 7, nil })
	outs := make([]<-chan any, 4)
	for i := range outs {
		outs[i] = follow(&f, "k", func() (int, error) { runs.Add(1); return -1, nil })
	}
	time.Sleep(50 * time.Millisecond) // let the followers reach the flight
	close(release)
	for _, out := range outs {
		if got := <-out; got != [3]any{7, error(nil), false} {
			t.Fatalf("follower got %v; want the leader's 7", got)
		}
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("fn ran %d times; want 1", n)
	}
}

func TestFlightErrorNotKept(t *testing.T) {
	var f Flight[string, int]
	boom := errors.New("boom")
	if _, err, leader := f.Do("k", func() (int, error) { return 0, boom }); err != boom || !leader {
		t.Fatalf("Do = %v, leader %v; want boom as leader", err, leader)
	}
	if v, err, leader := f.Do("k", func() (int, error) { return 3, nil }); v != 3 || err != nil || !leader {
		t.Fatalf("retry = %d, %v, leader %v; want a fresh run", v, err, leader)
	}
}

// TestFlightPanicReleasesKey: when the leader panics, every waiter
// re-panics with the leader's value and the key is free for the next Do.
func TestFlightPanicReleasesKey(t *testing.T) {
	var f Flight[string, int]
	release := make(chan struct{})
	lead(&f, "k", release, func() (int, error) { panic("leader bug") })
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		out := follow(&f, "k", func() (int, error) { return -1, nil })
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := <-out; got != "leader bug" {
				t.Errorf("waiter got %v; want the leader's panic", got)
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	select {
	case got := <-follow(&f, "k", func() (int, error) { return 5, nil }):
		if got != [3]any{5, error(nil), true} {
			t.Fatalf("Do after the panic = %v; want a fresh run returning 5", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Do after a panicking leader hung: the key is still in flight")
	}
}

// TestFlightGoexitReleasesKey: a leader whose fn calls runtime.Goexit
// (as t.FailNow does) gives waiters a panic, not a zero result.
func TestFlightGoexitReleasesKey(t *testing.T) {
	var f Flight[string, int]
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		f.Do("k", func() (int, error) {
			close(started)
			<-release
			runtime.Goexit()
			return 1, nil
		})
	}()
	<-started
	out := follow(&f, "k", func() (int, error) { return -1, nil })
	time.Sleep(50 * time.Millisecond)
	close(release)
	if got := <-out; got != errGoexit {
		t.Fatalf("waiter got %v; want errGoexit", got)
	}
	if v, _, leader := f.Do("k", func() (int, error) { return 2, nil }); v != 2 || !leader {
		t.Fatalf("Do after Goexit = %d, leader %v; want a fresh run", v, leader)
	}
}
