// Command e2ebench is the repository's end-to-end benchmark. It generates
// one of three seeded workloads in-process, measures it with tracing off,
// checks every output, and prints one JSON result line:
//
//   - compile-vliw and compile-targets run a closed loop of
//     pipeline.CompileFunc jobs (see compile.go);
//   - serve-gateway drives an in-process ursagw router over two ursad
//     shards at a fixed request rate (see serve.go).
//
// With -trace 1 the run instead replays the workload's jobs through each
// layer's public functions under spans and reports per-layer metrics (see
// trace.go). README.md describes the workloads and every metric.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// scratchDir holds everything a run writes: span files, the determinism
// record and the shards' disk caches. It is relative to the directory the
// benchmark runs from (the repository root).
const scratchDir = ".bench_build/e2ebench"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (ms metrics) set(name string, v float64, unit string) { ms[name] = metric{v, unit} }

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// env records what the numbers were measured on; it is printed with every
// result and stored in every span file.
type env struct {
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Seconds      int     `json:"seconds"`
	Trace        bool    `json:"trace"`
	NumCPU       int     `json:"num_cpu"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	Commit       string  `json:"commit"`
	Build        string  `json:"build"`
	OfferedRate  float64 `json:"offered_rate_per_s,omitempty"`
	LatencyLimit float64 `json:"latency_limit_ms"`
}

// outcome is what a workload run hands back to main.
type outcome struct {
	attempted, failed int
	metrics           metrics
	// code is the deterministic code-quality triple (cycles, words,
	// spill ops); every run of one build must reproduce it.
	code [3]float64
	// details is printed as a JSON line before the result.
	details map[string]any
}

type workloadFunc func(e *env) (*outcome, error)

var workloads = map[string]workloadFunc{
	"compile-vliw":    compileVLIW,
	"compile-targets": compileTargets,
	"serve-gateway":   serveGateway,
}

func main() {
	name := flag.String("workload", "", "workload to run: compile-vliw, compile-targets or serve-gateway")
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	seconds := flag.Int("seconds", 20, "how long to measure")
	trace := flag.Int("trace", 0, "1 replays the workload under spans and reports per-layer metrics")
	commit := flag.String("commit", "unknown", "commit under test, recorded with the result")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: usage: -workload %v -seed N -seconds N -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	e := &env{
		Workload:   *name,
		Seed:       *seed,
		Seconds:    *seconds,
		Trace:      *trace == 1,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     *commit,
		Build:      buildID(),
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		fatal(err)
	}
	out, err := run(e)
	if err != nil {
		fatal(err)
	}
	if err := checkDeterminism(e, out.code); err != nil {
		fatal(err)
	}
	if out.details == nil {
		out.details = map[string]any{}
	}
	out.details["env"] = e
	out.details["failed_ratio"] = float64(out.failed) / float64(max(out.attempted, 1))
	line, err := json.Marshal(out.details)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}
	line, err = json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
	os.Exit(1)
}

// buildID hashes the running binary: two runs with the same ID ran the
// same compiler, so their code-quality figures must agree.
func buildID() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checkDeterminism compares the run's code-quality triple with the one the
// first run of the same build and workload recorded. The triple does not
// depend on the seed, so any difference means the compiler is not
// deterministic and the run must not report a number.
func checkDeterminism(e *env, code [3]float64) error {
	path := filepath.Join(scratchDir, fmt.Sprintf("determinism-%s-%s.json", e.Workload, e.Build))
	if data, err := os.ReadFile(path); err == nil {
		var want [3]float64
		if err := json.Unmarshal(data, &want); err != nil {
			return fmt.Errorf("determinism record %s: %w", path, err)
		}
		if want != code {
			return fmt.Errorf("nondeterministic code: cycles/words/spill_ops %v, an earlier run of this build recorded %v", code, want)
		}
		return nil
	}
	data, err := json.Marshal(code)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
