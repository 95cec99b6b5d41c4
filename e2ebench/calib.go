package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// Host speed calibration. The benchmark runs on a few vCPUs of a shared
// host, whose speed follows the load of other tenants: on a 2-vCPU guest the
// same pass of compile jobs took anywhere from 6.5 to 9.6 s within minutes,
// in CPU time as much as in wall time, so the slowdown is not time spent
// waiting for a CPU but slower execution. The timed figures are therefore
// taken against a yardstick. refWork is a fixed piece of compiler-like work
// that belongs to the benchmark, not to the system under test, so no change
// to the repository changes its cost; how long it takes says how fast the
// host runs at that moment. Every timed figure of a workload is scaled by
// refNominalMS over the reference time measured next to it, which expresses
// it at the speed at which refWork takes refNominalMS. The figures before
// scaling are printed in the line before the result.
const (
	// refNominalMS is about refWork's time on a 2-vCPU Xeon guest, so
	// scaled figures read close to milliseconds there. It only sets the
	// unit and must never change.
	refNominalMS = 1.0
	// refRepeats is how many refWork calls one host-speed sample takes the
	// median of.
	refRepeats = 3
)

// refScratch is refWork's memory, reused by every call so the yardstick
// allocates nothing and never triggers a collection itself.
var refScratch struct {
	reach  []uint64
	xs     []int
	counts map[uint64]int
}

// refWork computes the transitive closure of a fixed pseudo-random DAG over
// bitset rows, counts keys in a hash map and sorts a slice. It returns a
// checksum so the work cannot be optimised away.
func refWork() uint64 {
	const n = 320
	const words = (n + 63) / 64
	s := &refScratch
	if s.reach == nil {
		s.reach = make([]uint64, n*words)
		s.xs = make([]int, 0, 8192)
		s.counts = make(map[uint64]int, 2048)
	}
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	reach := s.reach
	clear(reach)
	for i := 0; i < n-1; i++ {
		for k := 0; k < 3; k++ {
			j := i + 1 + int(next()%uint64(n-1-i))
			reach[i*words+j/64] |= 1 << (j % 64)
		}
	}
	for i := n - 1; i >= 0; i-- {
		row := reach[i*words : (i+1)*words]
		for j := i + 1; j < n; j++ {
			if row[j/64]>>(j%64)&1 != 0 {
				for w, x := range reach[j*words : (j+1)*words] {
					row[w] |= x
				}
			}
		}
	}
	clear(s.counts)
	xs := s.xs[:0]
	for i := 0; i < cap(xs); i++ {
		v := next()
		s.counts[v%2048]++
		xs = append(xs, int(v>>40))
	}
	sort.Ints(xs)
	sum := uint64(len(s.counts)) + uint64(xs[len(xs)/2])
	for _, w := range reach {
		sum += w
	}
	return sum
}

// refSink keeps refWork's result alive.
var refSink uint64

// refMS times one refWork call in ms.
func refMS() float64 {
	t0 := time.Now()
	refSink += refWork()
	return ms(time.Since(t0))
}

// hostRef collects garbage and then takes one host-speed sample: the median
// of refRepeats refWork times, in ms.
func hostRef() float64 {
	runtime.GC()
	var ts [refRepeats]float64
	for i := range ts {
		ts[i] = refMS()
	}
	return median(ts[:])
}

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID, which the
// syscall package does not name. Unlike getrusage, this clock includes the
// running thread's time since its last scheduler tick.
const clockThreadCPUTimeID = 3

// threadCPU returns the CPU time the calling thread has used so far.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno)
	}
	return time.Duration(ts.Nano())
}

// sampler times refWork every period from its own goroutine while a
// concurrent workload runs, for workloads that cannot stop between
// requests to take a sample. The goroutine keeps its own thread and times
// refWork in that thread's CPU time, which leaves out the time it waits
// behind the workload's goroutines for a CPU.
type sampler struct {
	ref  []float64 // refWork times in ms
	stop chan struct{}
	done chan struct{}
}

func startSampler(every time.Duration) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				c0 := threadCPU()
				refSink += refWork()
				s.ref = append(s.ref, ms(threadCPU()-c0))
			}
		}
	}()
	return s
}

// halt stops the sampler, waits for its goroutine to end and returns the
// factor that brings the run's times to nominal host speed: refNominalMS
// over the median sample. One factor for the whole run, rather than one per
// stretch of it, because a sample also runs slower while the workload keeps
// the guest's other vCPU busy, and that load varies from second to second
// with the request mix.
func (s *sampler) halt() float64 {
	close(s.stop)
	<-s.done
	return refNominalMS / median(append([]float64(nil), s.ref...))
}
