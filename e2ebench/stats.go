package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// quantile returns the Harrell–Davis estimate of the q-quantile of xs: a
// mean of all order statistics weighted by a Beta((n+1)q, (n+1)(1-q))
// density. Unlike a single order statistic it moves smoothly when timing
// noise swaps neighbouring samples, which matters where the distribution
// has gaps (a handful of distinct jobs) or a steep tail. xs is sorted in
// place; q outside (0, 1) gives the minimum or maximum.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	switch {
	case q <= 0 || n == 1:
		return xs[0]
	case q >= 1:
		return xs[n-1]
	}
	a, b := float64(n+1)*q, float64(n+1)*(1-q)
	sum, prev := 0.0, 0.0
	for i, x := range xs {
		cur := betaInc(a, b, float64(i+1)/float64(n))
		sum += (cur - prev) * x
		prev = cur
	}
	return sum
}

// betaInc is the regularized incomplete beta function I_x(a, b),
// evaluated by its continued fraction (modified Lentz's method).
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaFrac(a, b, x) / a
	}
	return 1 - front*betaFrac(b, a, 1-x)/b
}

func betaFrac(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 1000; m++ {
		aa := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		aa = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-14 {
			break
		}
	}
	return h
}

// median is the middle order statistic of xs, or the mean of the two middle
// ones when n is even. Unlike the Harrell–Davis estimate it ignores how far
// off the outlying samples are, so one repeat the shared host slowed down
// does not move it. xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// totalAllocMB reads the process's cumulative heap allocation.
func totalAllocMB() float64 {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.TotalAlloc) / (1 << 20)
}

// medianSetup runs setup n times and returns the median time, at nominal
// host speed, together with the last attempt's result; every earlier result
// is released with discard. Set-up is repeated because a single set-up takes
// milliseconds and its run-to-run spread would otherwise swamp any change;
// each attempt is scaled by a host-speed sample taken just before it.
func medianSetup[T any](n int, setup func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	var times []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			discard(last)
		}
		ref := hostRef()
		start := time.Now()
		v, err := setup()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		times = append(times, time.Since(start).Seconds()*refNominalMS/ref)
		last = v
	}
	return last, median(times), nil
}
