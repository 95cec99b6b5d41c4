package check

import (
	"math/rand"
	"testing"
)

// TestLoopGenerated sweeps seeded random loop cases through the loop
// oracle: random loop-carried dependences, trip counts including 0, 1, and
// counts the blocking factor does not divide, on both machine families.
func TestLoopGenerated(t *testing.T) {
	if testing.Short() {
		t.Skip("loop sweep is slow")
	}
	seeds := 30
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := GenerateLoop(rng)
		c.Seed = seed
		rep := CheckLoop(c)
		if rep.Exercised[OracleLoop] == 0 {
			t.Errorf("seed %d exercised nothing\n%s", seed, FormatLoopCase(c))
		}
		for _, v := range rep.Violations {
			t.Errorf("seed %d: %s\n%s", seed, v, FormatLoopCase(c))
		}
	}
}

// TestLoopCorpusRoundTrip pins the .ursaloop format: every committed case
// must survive parse -> format -> parse unchanged.
func TestLoopCorpusRoundTrip(t *testing.T) {
	corpus, err := LoadLoopCorpus("testdata/loops")
	if err != nil {
		t.Fatalf("LoadLoopCorpus: %v", err)
	}
	for name, c := range corpus {
		c2, err := ParseLoopCase(FormatLoopCase(c))
		if err != nil {
			t.Errorf("%s: reparse: %v", name, err)
			continue
		}
		if *c2.Mach != *c.Mach || c2.Source != c.Source {
			t.Errorf("%s: case changed across round trip", name)
		}
	}
}
