package pipeline

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"

	"ursa/internal/ir"
	"ursa/internal/machine"
	"ursa/internal/modsched"
)

// CompileLoopFunc is the loop-centric pipeline entry: it software-pipelines
// every canonical counted loop in f with internal/modsched (II search under
// URSA's kernel measurement, modulo variable expansion, guard/kernel/
// remainder emission) and then compiles the transformed function with the
// requested method. The modsched result reports per-loop II against the
// resMII/recMII lower bounds.
func CompileLoopFunc(f *ir.Func, m *machine.Config, method Method, opts Options) (*FuncProgram, *Stats, *modsched.Result, error) {
	ms, err := modsched.Pipeline(f, m, modsched.Options{})
	if err != nil {
		return nil, nil, nil, err
	}
	fp, st, err := CompileFunc(ms.Func, m, method, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	return fp, st, ms, nil
}

// LoopCacheKey derives the compile-result cache key for the loop-pipelined
// compilation of f: the ordinary CacheKey fingerprint (function IR, machine
// semantics, method, options) domain-separated by a loop-pipeline marker,
// so straight and loop-pipelined compiles of the same function never share
// an artifact. ursagw routes on this key like any other.
func LoopCacheKey(f *ir.Func, m *machine.Config, method Method, opts Options) string {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(loopKeyDomain)))
	h.Write(buf[:])
	h.Write([]byte(loopKeyDomain))
	h.Write([]byte(CacheKey(f, m, method, opts)))
	return hex.EncodeToString(h.Sum(nil))
}

const loopKeyDomain = "modsched-loop-v1"

// CompileLoopCached is CompileLoopFunc behind the tiered compile-result
// cache, mirroring CompileFuncCached under LoopCacheKey. The
// modulo-scheduling transform runs on every call (its report — II, MII,
// unroll — is part of the response even on a warm hit); the per-block
// compilation of the transformed function is what the cache absorbs.
func CompileLoopCached(f *ir.Func, m *machine.Config, method Method, opts Options) (*CachedFunc, *Stats, *modsched.Result, error) {
	ms, err := modsched.Pipeline(f, m, modsched.Options{})
	if err != nil {
		return nil, nil, nil, err
	}
	cf, st, err := compileCached(func() string { return LoopCacheKey(f, m, method, opts) }, ms.Func, m, method, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	return cf, st, ms, nil
}
