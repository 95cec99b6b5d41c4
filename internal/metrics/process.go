package metrics

import "sync/atomic"

// Process-wide compiler counters. The reduction loop runs deep inside
// internal/core, far below any Registry; a registry handle cannot be
// threaded there without widening every allocator API. Instead core bumps
// these package-level atomics and the serving layer surfaces them at scrape
// time through Registry.Func, the same pattern Prometheus clients use for
// process collectors.

var candidateEvals atomic.Uint64

// AddCandidateEvals records n tentative candidate evaluations (one per
// candidate scored by the reduction loop, across all styles and blocks).
func AddCandidateEvals(n uint64) { candidateEvals.Add(n) }

// CandidateEvals returns the process-wide total of tentative candidate
// evaluations performed by the reduction loop.
func CandidateEvals() uint64 { return candidateEvals.Load() }

var evalIdleNanos atomic.Uint64

// AddEvalIdleNanos records nanoseconds evaluator workers spent idle during
// a candidate-evaluation batch: batch wall time times the worker count,
// minus the summed per-job busy time. Persistent idle time at high -j means
// the batch is too small or too skewed to fill the pool.
func AddEvalIdleNanos(n uint64) { evalIdleNanos.Add(n) }

// EvalIdleNanos returns the process-wide evaluator worker idle time.
func EvalIdleNanos() uint64 { return evalIdleNanos.Load() }

var evalBusyNanos atomic.Uint64

// AddEvalBusyNanos records nanoseconds evaluator workers spent running
// candidate evaluations (the busy complement of AddEvalIdleNanos).
func AddEvalBusyNanos(n uint64) { evalBusyNanos.Add(n) }

// EvalBusyNanos returns the process-wide evaluator worker busy time.
func EvalBusyNanos() uint64 { return evalBusyNanos.Load() }

// SpeculativeEvals and SpeculativeHits always return 0. The reduction loop
// no longer pre-scores candidates speculatively; the readers remain only
// because the end-to-end benchmark's trace layer still reads them, and go
// with the next change to that benchmark.
func SpeculativeEvals() uint64 { return 0 }

// SpeculativeHits always returns 0; see SpeculativeEvals.
func SpeculativeHits() uint64 { return 0 }
