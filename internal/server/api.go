package server

import (
	"fmt"
	"sort"

	"ursa/internal/frontend"
	"ursa/internal/ir"
	"ursa/internal/machine"
	"ursa/internal/pipeline"
	"ursa/internal/store"
	"ursa/internal/workload"
)

// MachineSpec selects a target machine: a named preset, a full inline
// machine.Spec (the portable form covering every target family), a
// homogeneous width×regs pair, or an explicit heterogeneous
// configuration. An empty spec means the default preset (vliw4x8).
// Latency is "unit" (default) or "realistic" (multi-cycle loads,
// multiplies, FP); with an inline Spec the latency model belongs in the
// spec itself.
type MachineSpec struct {
	Preset string `json:"preset,omitempty"`
	// Spec is the full inline machine description; when present it wins
	// over every other selector.
	Spec *machine.Spec `json:"spec,omitempty"`
	// Homogeneous: functional units and registers per file.
	Width int `json:"width,omitempty"`
	Regs  int `json:"regs,omitempty"`
	// Heterogeneous: per-class unit counts and per-class register files.
	// Used when any unit count is nonzero and Width is zero.
	IALU    int `json:"ialu,omitempty"`
	FALU    int `json:"falu,omitempty"`
	Mem     int `json:"mem,omitempty"`
	Branch  int `json:"branch,omitempty"`
	IntRegs int `json:"int_regs,omitempty"`
	FPRegs  int `json:"fp_regs,omitempty"`

	Latency string `json:"latency,omitempty"`
}

// resolve returns the machine the spec names. The returned config is
// always a private copy, so latency overrides never mutate a preset.
func (ms *MachineSpec) resolve() (*machine.Config, error) {
	var m *machine.Config
	switch {
	case ms.Spec != nil:
		if ms.Latency != "" {
			return nil, fmt.Errorf("latency belongs inside an inline machine spec")
		}
		return ms.Spec.Config()
	case ms.Preset != "":
		p := presetByName(ms.Preset)
		if p == nil {
			return nil, fmt.Errorf("unknown machine preset %q (see GET /v1/machines)", ms.Preset)
		}
		cp := *p.Config
		m = &cp
	case ms.Width > 0:
		regs := ms.Regs
		if regs <= 0 {
			regs = 8
		}
		m = machine.VLIW(ms.Width, regs)
	case ms.IALU > 0 || ms.FALU > 0 || ms.Mem > 0 || ms.Branch > 0:
		m = machine.Heterogeneous(ms.IALU, ms.FALU, ms.Mem, ms.Branch, ms.IntRegs, ms.FPRegs)
	default:
		m = machine.VLIW(4, 8)
	}
	switch ms.Latency {
	case "", "unit":
	case "realistic":
		m.Latency = machine.RealisticLatency
	default:
		return nil, fmt.Errorf("unknown latency model %q (want \"unit\" or \"realistic\")", ms.Latency)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// InitSpec seeds the initial machine state for execution: memory cells per
// symbol (kernel-language scalars live at "$name"[0]). When absent and the
// request compiles the built-in paper example, the paper's canonical input
// is used.
type InitSpec struct {
	Ints   map[string][]int64   `json:"ints,omitempty"`
	Floats map[string][]float64 `json:"floats,omitempty"`
}

func (is *InitSpec) state() *ir.State {
	st := ir.NewState()
	if is == nil {
		return st
	}
	for sym, vals := range is.Ints {
		for off, v := range vals {
			st.StoreInt(sym, int64(off), v)
		}
	}
	for sym, vals := range is.Floats {
		for off, v := range vals {
			st.StoreFloat(sym, int64(off), v)
		}
	}
	return st
}

// CompileRequest asks for one function compiled with one pipeline on one
// machine — the body of POST /v1/compile and the element of a batch.
type CompileRequest struct {
	// Name labels the job in results and errors. Optional.
	Name string `json:"name,omitempty"`
	// Source is the program text. Empty means the paper's Figure 2
	// example (the same default as the ursac CLI).
	Source string `json:"source,omitempty"`
	// Lang is "ir" (three-address code, default) or "kernel".
	Lang string `json:"lang,omitempty"`
	// Unroll is the kernel-language loop unroll factor.
	Unroll int `json:"unroll,omitempty"`

	Machine MachineSpec `json:"machine,omitempty"`
	// Method is the pipeline: ursa (default), prepass, postpass,
	// integrated-list, or exact (the node-count-guarded optimal lane).
	Method string `json:"method,omitempty"`
	// Gap additionally runs the exact solver on every block and reports
	// how far the chosen method landed from the proven optima (see
	// GapJSON). Blocks beyond the solver's limits mark the report skipped
	// rather than failing the request.
	Gap bool `json:"gap,omitempty"`
	// Optimize runs the scalar optimizations before compiling.
	Optimize bool `json:"optimize,omitempty"`
	// Loop software-pipelines every canonical counted loop with
	// internal/modsched before compiling (kernel-language sources with
	// counted loops; see docs/LOOPS.md). The response carries a LoopJSON
	// per pipelined loop, and Run verifies the pipelined code against the
	// interpretation of the original, unpipelined function.
	Loop bool `json:"loop,omitempty"`
	// Workers bounds per-request block-level parallelism; 0 means
	// sequential (the server's concurrency lives in the admission queue).
	Workers int `json:"workers,omitempty"`

	// Run executes the compiled code on the VLIW simulator and verifies
	// its memory effects against the sequential interpreter.
	Run bool `json:"run,omitempty"`
	// InOrder executes on the in-order superscalar model instead.
	InOrder bool `json:"in_order,omitempty"`
	// MaxCycles bounds execution; 0 means 10M cycles.
	MaxCycles int `json:"max_cycles,omitempty"`
	// Init seeds the initial state for Run.
	Init *InitSpec `json:"init,omitempty"`
}

// load parses the request's source into a function.
func (cr *CompileRequest) load() (*ir.Func, bool, error) {
	switch cr.Lang {
	case "", "ir", "kernel":
	default:
		return nil, false, fmt.Errorf("unknown lang %q (want \"ir\" or \"kernel\")", cr.Lang)
	}
	if cr.Source == "" {
		return workload.PaperExample(true), true, nil
	}
	switch cr.Lang {
	case "kernel":
		u, err := frontend.Compile(cr.Source, frontend.Options{Unroll: cr.Unroll})
		if err != nil {
			return nil, false, err
		}
		return u.Func, false, nil
	default:
		f, err := ir.Parse(cr.Source)
		return f, false, err
	}
}

// CacheKey derives the canonical compile-result cache key this request
// resolves to — the same pipeline.CacheKey the daemon computes before
// compiling, so a router in front of a fleet can place the request on
// the shard that owns (or will own) the artifact. Fails on exactly the
// inputs the daemon would reject with 400 (bad source, unknown method
// or machine).
func (cr *CompileRequest) CacheKey() (string, error) {
	f, _, err := cr.load()
	if err != nil {
		return "", fmt.Errorf("parse: %w", err)
	}
	method, err := cr.method()
	if err != nil {
		return "", err
	}
	m, err := cr.Machine.resolve()
	if err != nil {
		return "", fmt.Errorf("machine: %w", err)
	}
	if cr.Loop {
		return pipeline.LoopCacheKey(f, m, method, pipeline.Options{Optimize: cr.Optimize}), nil
	}
	return pipeline.CacheKey(f, m, method, pipeline.Options{Optimize: cr.Optimize}), nil
}

// method resolves the pipeline name.
func (cr *CompileRequest) method() (pipeline.Method, error) {
	if cr.Method == "" {
		return pipeline.URSA, nil
	}
	for _, m := range pipeline.AllMethods {
		if m.String() == cr.Method {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown method %q (want ursa, prepass, postpass, integrated-list, or exact)", cr.Method)
}

// BlockListing is one compiled basic block's VLIW words, rendered exactly
// as assign.Program.String() — byte-identical to an in-process compile.
type BlockListing struct {
	Label   string `json:"label"`
	Listing string `json:"listing"`
}

// StatsJSON mirrors pipeline.Stats for the wire.
type StatsJSON struct {
	Words          int     `json:"words"`
	SpillOps       int     `json:"spill_ops"`
	IntRegs        int     `json:"int_regs"`
	FPRegs         int     `json:"fp_regs"`
	URSATransforms int     `json:"ursa_transforms,omitempty"`
	URSAFits       bool    `json:"ursa_fits,omitempty"`
	Cycles         int     `json:"cycles,omitempty"`
	Issued         int     `json:"issued,omitempty"`
	Utilization    float64 `json:"utilization,omitempty"`
	Verified       bool    `json:"verified,omitempty"`
}

func statsJSON(st *pipeline.Stats) StatsJSON {
	return StatsJSON{
		Words:          st.Words,
		SpillOps:       st.SpillOps,
		IntRegs:        st.RegsUsed[ir.ClassInt],
		FPRegs:         st.RegsUsed[ir.ClassFP],
		URSATransforms: st.URSATransforms,
		URSAFits:       st.URSAFits,
		Cycles:         st.Cycles,
		Issued:         st.Issued,
		Utilization:    st.Utilization,
		Verified:       st.Verified,
	}
}

// MemCell is one non-spill memory cell of the final state, in sorted
// order (matching the ursac CLI's dump).
type MemCell struct {
	Sym   string `json:"sym"`
	Off   int64  `json:"off"`
	Value int64  `json:"value"`
}

// RunJSON reports an execution.
type RunJSON struct {
	Cycles   int       `json:"cycles"`
	Issued   int       `json:"issued"`
	SpillOps int       `json:"spill_ops"`
	Blocks   int       `json:"block_executions"`
	Mem      []MemCell `json:"mem,omitempty"`
}

func memCells(st *ir.State) []MemCell {
	var cells []MemCell
	for a, w := range st.Mem {
		if ir.IsSpillSlot(a.Sym) {
			continue
		}
		cells = append(cells, MemCell{Sym: a.Sym, Off: a.Off, Value: w.Int()})
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Sym != cells[j].Sym {
			return cells[i].Sym < cells[j].Sym
		}
		return cells[i].Off < cells[j].Off
	})
	return cells
}

// CacheJSON reports how the artifact cache served one request, when it is
// enabled: which tier served the compile result ("memory", "disk",
// "peer", "coalesced", or "compiled" when every tier missed) and a
// per-tier totals snapshot.
type CacheJSON struct {
	Result string `json:"result,omitempty"`
	// Key is the canonical compile-result cache key (pipeline.CacheKey)
	// when the artifact cache is enabled — the handle for
	// GET /v1/cache/{key} and the unit the cluster router shards on.
	Key       string           `json:"key,omitempty"`
	Artifacts *store.TierStats `json:"artifacts,omitempty"`
}

// GapJSON quantifies how far the chosen method landed from the exact
// solver's proven optima, aggregated over the function's blocks the way
// Stats aggregates (words sum, register pressure maxes). Present only
// when the request set "gap": true. When any block exceeds the solver's
// node limit or search budget, Skipped carries the refusal and the
// numeric fields are absent. WordsGap compares against the program-model
// minimum, so it is nonnegative for every method; the register gaps may
// go negative when spill code trades registers for memory traffic.
type GapJSON struct {
	ExactWords   int    `json:"exact_words,omitempty"`
	ExactIntRegs int    `json:"exact_int_regs,omitempty"`
	ExactFPRegs  int    `json:"exact_fp_regs,omitempty"`
	WordsGap     int    `json:"words_gap"`
	IntRegsGap   int    `json:"int_regs_gap"`
	FPRegsGap    int    `json:"fp_regs_gap"`
	Skipped      string `json:"skipped,omitempty"`
}

// LoopJSON reports one software-pipelined loop: the initiation interval
// the modulo scheduler accepted against the classic lower bounds, the
// modulo-variable-expansion blocking factor, and the steady-state cost.
// Present only on "loop": true requests.
type LoopJSON struct {
	Head        string `json:"head"`
	ResMII      int    `json:"res_mii"`
	RecMII      int    `json:"rec_mii"`
	MII         int    `json:"mii"`
	II          int    `json:"ii"`
	Stages      int    `json:"stages"`
	Unroll      int    `json:"unroll"`
	KernelWords int    `json:"kernel_words"`
	AchievedII  int    `json:"achieved_ii"`
}

// CompileResponse is POST /v1/compile's body.
type CompileResponse struct {
	Name      string         `json:"name,omitempty"`
	Method    string         `json:"method"`
	Machine   string         `json:"machine"`
	Blocks    []BlockListing `json:"blocks"`
	Stats     StatsJSON      `json:"stats"`
	Gap       *GapJSON       `json:"gap,omitempty"`
	Loops     []LoopJSON     `json:"loops,omitempty"`
	Run       *RunJSON       `json:"run,omitempty"`
	Cache     CacheJSON      `json:"cache"`
	ElapsedMS float64        `json:"elapsed_ms"`
}

// BatchRequest fans a set of compile jobs over the parallel driver.
type BatchRequest struct {
	Jobs []CompileRequest `json:"jobs"`
	// Workers bounds the batch's job-level parallelism; 0 means
	// GOMAXPROCS. Results are independent of the worker count.
	Workers int `json:"workers,omitempty"`
}

// BatchResult is one job's outcome: a response or an error, never both.
type BatchResult struct {
	*CompileResponse
	Error string `json:"error,omitempty"`
}

// BatchResponse is POST /v1/batch's body. Results are in job submission
// order.
type BatchResponse struct {
	Results   []BatchResult `json:"results"`
	Errors    int           `json:"errors"`
	ElapsedMS float64       `json:"elapsed_ms"`
}

// ErrorResponse is any endpoint's failure body.
type ErrorResponse struct {
	Error string `json:"error"`
}

// MachineJSON describes one preset for GET /v1/machines.
type MachineJSON struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Family      string `json:"family"`
	Homogeneous bool   `json:"homogeneous"`
	// Units is the machine-wide total across classes and clusters.
	Units       int    `json:"units"`
	IntRegs     int    `json:"int_regs"`
	FPRegs      int    `json:"fp_regs"`
	Clusters    int    `json:"clusters,omitempty"`
	BufferDepth int    `json:"buffer_depth,omitempty"`
	IssueWidth  int    `json:"issue_width,omitempty"`
	Summary     string `json:"summary"`
}

// HealthJSON is GET /healthz's body. ArtifactCache is present only when
// the artifact cache is enabled.
type HealthJSON struct {
	Status        string           `json:"status"`
	Draining      bool             `json:"draining"`
	InFlight      int64            `json:"in_flight"`
	Queued        int64            `json:"queued"`
	ArtifactCache *store.TierStats `json:"artifact_cache,omitempty"`
}
