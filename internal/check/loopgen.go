package check

import (
	"fmt"
	"math/rand"
	"strings"
)

// loopTrips are the trip counts the generator draws from: the degenerate
// counts (0, 1), primes and other counts no power-of-two blocking factor
// divides, and a few long enough to spend real time in the kernel block.
var loopTrips = []int{0, 1, 2, 3, 4, 5, 6, 7, 9, 11, 13, 17, 21, 24, 31, 33}

// loopStmtPool builds the candidate body statements for one case:
// accumulators (cyclic scalar dependences), distance-1 and distance-2
// array recurrences, and independent parallel streams, with small random
// constants so distinct seeds exercise distinct dependence weights.
func loopStmtPool(rng *rand.Rand) []string {
	return []string{
		fmt.Sprintf("s = s + a[i]*%d;", 1+rng.Intn(7)),
		fmt.Sprintf("s = s + a[i] - %d;", rng.Intn(9)),
		fmt.Sprintf("b[i+1] = b[i] + a[i]*%d;", 1+rng.Intn(5)),
		fmt.Sprintf("b[i+2] = b[i] + %d;", 1+rng.Intn(4)),
		fmt.Sprintf("c[i] = a[i]*a[i] + %d;", rng.Intn(15)),
		"d[i] = a[i+1] - a[i];",
		"c[i] = b[i] + s;",
	}
}

// GenerateLoop produces one random loop case from the rng: one to four
// distinct body statements, a trip count, and a machine. Machines are kept
// roomy enough (≥ 8 registers per class in play) that every canonical loop
// admits a spill-free kernel; a Pipeline refusal on a generated case is
// therefore a finding, not noise.
func GenerateLoop(rng *rand.Rand) *LoopCase {
	pool := loopStmtPool(rng)
	n := 1 + rng.Intn(4)
	var stmts []string
	seen := map[int]bool{}
	for len(stmts) < n {
		k := rng.Intn(len(pool))
		if seen[k] {
			continue
		}
		seen[k] = true
		stmts = append(stmts, pool[k])
	}
	mach := &MachineSpec{
		Width:     2 + rng.Intn(3),
		IntRegs:   8 + rng.Intn(8),
		FPRegs:    8,
		Realistic: rng.Intn(3) == 0,
	}
	if rng.Intn(2) == 0 {
		mach = &MachineSpec{
			Het:       true,
			IALU:      1 + rng.Intn(2),
			FALU:      1,
			MEM:       1 + rng.Intn(2),
			BR:        1,
			IntRegs:   10 + rng.Intn(6),
			FPRegs:    10,
			Realistic: rng.Intn(3) == 0,
		}
	}
	trip := loopTrips[rng.Intn(len(loopTrips))]

	var sb strings.Builder
	sb.WriteString("func genloop {\n\tvar s = 1;\n")
	fmt.Fprintf(&sb, "\tfor i = 0 to %d {\n", trip)
	for _, s := range stmts {
		fmt.Fprintf(&sb, "\t\t%s\n", s)
	}
	sb.WriteString("\t}\n\tout[0] = s;\n}\n")
	return &LoopCase{Name: "loop", Source: sb.String(), Mach: mach}
}
