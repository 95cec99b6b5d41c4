package check

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ursa/internal/frontend"
	"ursa/internal/ir"
	"ursa/internal/modsched"
	"ursa/internal/pipeline"
)

// OracleLoop is the loop-pipelining oracle: modulo-scheduled loops must
// respect the MII lower bound and the transformed function must compute
// exactly what the original does — under the interpreter and compiled on
// the simulator — at the case's trip count (including 0, 1, and counts the
// blocking factor does not divide).
const OracleLoop = "loop"

// LoopCase is one loop-pipelining verification input: a kernel-language
// program whose loops modsched should pipeline, plus the machine it
// targets. The initial state is canonical (LoopInitState), so a case is
// reproducible from its .ursaloop file alone.
type LoopCase struct {
	Name   string
	Seed   int64 // generator seed, 0 for hand-written cases
	Source string
	Mach   *MachineSpec
}

// loopInterpBudget bounds each interpreter or simulator run of a case.
const loopInterpBudget = 4_000_000

// loopArrLen is how many cells of each input array LoopInitState fills;
// generated trip counts stay comfortably below it.
const loopArrLen = 40

// LoopInitState returns the canonical initial state for loop cases: input
// arrays a and b hold small deterministic values on [-2, loopArrLen], so
// recurrences reading b[i-1] or a[i+1] at the trip boundaries see defined
// cells; everything else is zero.
func LoopInitState() *ir.State {
	st := ir.NewState()
	for k := int64(-2); k <= loopArrLen; k++ {
		st.StoreInt("a", k, 3*k-7)
		st.StoreInt("b", k, 2*k+1)
	}
	return st
}

// CheckLoop runs the loop oracle on the case. Panics inside the pipeline
// under test are reported as violations, mirroring Check.
func CheckLoop(c *LoopCase) *Report {
	rep := newReport()
	func() {
		defer func() {
			if r := recover(); r != nil {
				rep.failf(OracleLoop, "panic: %v", r)
			}
		}()
		checkLoopCase(rep, c)
	}()
	return rep
}

func checkLoopCase(rep *Report, c *LoopCase) {
	u, err := frontend.Compile(c.Source, frontend.Options{})
	if err != nil {
		rep.failf(OracleLoop, "frontend: %v", err)
		return
	}
	m := c.Mach.Config()
	res, err := modsched.Pipeline(u.Func, m, modsched.Options{})
	if err != nil {
		// The generator only emits canonical loops on machines roomy
		// enough to pipeline, so any refusal is a finding.
		rep.failf(OracleLoop, "modsched.Pipeline: %v", err)
		return
	}

	// Property 1: every accepted loop respects the lower bound.
	for _, l := range res.Loops {
		rep.tick(OracleLoop)
		if l.MII < 1 || l.II < l.MII || l.AchievedII < l.MII {
			rep.failf(OracleLoop, "loop %s: II=%d achieved=%d below MII=%d (res=%d rec=%d)",
				l.HeadLabel, l.II, l.AchievedII, l.MII, l.ResMII, l.RecMII)
		}
	}

	// Property 2 (diff-exec): the pipelined function, interpreted, leaves
	// the exact memory state of the original.
	ref, got := LoopInitState(), LoopInitState()
	if _, err := ref.Run(u.Func, loopInterpBudget); err != nil {
		rep.failf(OracleLoop, "interp original: %v", err)
		return
	}
	if _, err := got.Run(res.Func, loopInterpBudget); err != nil {
		rep.failf(OracleLoop, "interp pipelined: %v", err)
		return
	}
	rep.tick(OracleLoop)
	if d := ir.MemDiff(ref, got); d != nil {
		rep.failf(OracleLoop, "pipelined interp diverges: %v", d)
		return
	}

	// Property 3: the pipelined function also compiles and verifies on the
	// VLIW simulator, closing the loop transform → allocator → emitted
	// code chain.
	rep.tick(OracleLoop)
	st, err := pipeline.EvaluateFunc(res.Func, m, pipeline.URSA, LoopInitState(), loopInterpBudget, pipeline.Options{})
	if err != nil {
		rep.failf(OracleLoop, "compiled pipelined function: %v", err)
		return
	}
	if !st.Verified {
		rep.failf(OracleLoop, "compiled pipelined function failed simulator verification")
	}
}

// The .ursaloop corpus format mirrors .ursafuzz: a comment naming the
// case, the machine directive, then "---" and the kernel-language source.

// FormatLoopCase renders the case in .ursaloop form.
func FormatLoopCase(c *LoopCase) string {
	var sb strings.Builder
	if c.Name != "" {
		fmt.Fprintf(&sb, "# %s", c.Name)
		if c.Seed != 0 {
			fmt.Fprintf(&sb, " (seed %d)", c.Seed)
		}
		sb.WriteString("\n")
	}
	sb.WriteString(c.Mach.String())
	sb.WriteString("\n---\n")
	sb.WriteString(strings.TrimLeft(c.Source, "\n"))
	if !strings.HasSuffix(c.Source, "\n") {
		sb.WriteString("\n")
	}
	return sb.String()
}

// ParseLoopCase parses the .ursaloop form.
func ParseLoopCase(data string) (*LoopCase, error) {
	head, body, found := strings.Cut(data, "\n---\n")
	if !found {
		return nil, fmt.Errorf("check: loop case missing --- separator")
	}
	c := &LoopCase{}
	for _, line := range strings.Split(head, "\n") {
		line = strings.TrimSpace(line)
		switch {
		case line == "":
		case strings.HasPrefix(line, "#"):
			if c.Name == "" {
				c.Name = strings.TrimSpace(strings.TrimPrefix(line, "#"))
			}
		case strings.HasPrefix(line, "machine "):
			spec, err := parseMachineSpec(line)
			if err != nil {
				return nil, err
			}
			c.Mach = spec
		default:
			return nil, fmt.Errorf("check: unknown loop corpus directive %q", line)
		}
	}
	if c.Mach == nil {
		return nil, fmt.Errorf("check: loop case has no machine directive")
	}
	c.Source = body
	if _, err := frontend.Compile(c.Source, frontend.Options{}); err != nil {
		return nil, fmt.Errorf("check: loop case source: %w", err)
	}
	return c, nil
}

// LoadLoopCorpus reads every .ursaloop file in dir, sorted by name. A
// missing directory is an empty corpus.
func LoadLoopCorpus(dir string) (map[string]*LoopCase, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	out := map[string]*LoopCase{}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".ursaloop") {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		c, err := ParseLoopCase(string(data))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out[name] = c
	}
	return out, nil
}

// WriteLoopCase writes the case to dir/name.ursaloop.
func WriteLoopCase(dir, name string, c *LoopCase) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".ursaloop")
	return path, os.WriteFile(path, []byte(FormatLoopCase(c)), 0o644)
}
