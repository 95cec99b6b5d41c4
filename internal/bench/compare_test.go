package bench

import (
	"path/filepath"
	"testing"
)

func TestCompare(t *testing.T) {
	baseline := []Entry{
		{Name: "PickBest/full", NsPerOp: 1000},
		{Name: "ReduceLarge/full", NsPerOp: 2000},
		{Name: "Dropped/one", NsPerOp: 10},
	}
	current := []Entry{
		{Name: "PickBest/full", NsPerOp: 1100},    // +10%: inside a 15% gate
		{Name: "ReduceLarge/full", NsPerOp: 2400}, // +20%: regression
		{Name: "Brand/new", NsPerOp: 5},           // no baseline: no verdict
	}
	nsOnly := Gate{MaxNsPct: 15, MaxAllocsPct: -1, MaxBytesPct: -1}
	deltas, regs, missing := Compare(baseline, current, nsOnly)
	if len(deltas) != 2 {
		t.Fatalf("deltas = %v, want 2 pairings", deltas)
	}
	if len(regs) != 1 || regs[0].Name != "ReduceLarge/full" {
		t.Fatalf("regressions = %v, want only ReduceLarge/full", regs)
	}
	if regs[0].Pct < 19.9 || regs[0].Pct > 20.1 {
		t.Errorf("regression pct = %v, want ~20", regs[0].Pct)
	}
	if len(missing) != 1 || missing[0] != "Dropped/one" {
		t.Errorf("missing = %v, want [Dropped/one]", missing)
	}

	// An improvement is a negative delta, never a regression.
	_, regs, _ = Compare(
		[]Entry{{Name: "a", NsPerOp: 1000}},
		[]Entry{{Name: "a", NsPerOp: 500}}, nsOnly)
	if len(regs) != 0 {
		t.Errorf("improvement flagged as regression: %v", regs)
	}

	// Exactly at the threshold passes; the gate is strictly greater-than.
	_, regs, _ = Compare(
		[]Entry{{Name: "a", NsPerOp: 1000}},
		[]Entry{{Name: "a", NsPerOp: 1150}}, nsOnly)
	if len(regs) != 0 {
		t.Errorf("threshold-exact delta flagged: %v", regs)
	}
}

func TestCompareGatesAllocsAndBytes(t *testing.T) {
	gate := Gate{MaxNsPct: 15, MaxAllocsPct: 10, MaxBytesPct: 10}
	baseline := []Entry{{Name: "a", NsPerOp: 1000, AllocsPerOp: 1000, BytesPerOp: 1 << 20}}

	// Flat wall time but 2x the allocations: the alloc gate must fire.
	_, regs, _ := Compare(baseline,
		[]Entry{{Name: "a", NsPerOp: 1000, AllocsPerOp: 2000, BytesPerOp: 1 << 20}}, gate)
	if len(regs) != 1 {
		t.Fatalf("alloc regression not caught: %v", regs)
	}
	if len(regs[0].Why) != 1 || regs[0].Why[0] == "" {
		t.Errorf("Why = %v, want one alloc reason", regs[0].Why)
	}

	// Bytes regression alone also fires.
	_, regs, _ = Compare(baseline,
		[]Entry{{Name: "a", NsPerOp: 1000, AllocsPerOp: 1000, BytesPerOp: 2 << 20}}, gate)
	if len(regs) != 1 {
		t.Fatalf("bytes regression not caught: %v", regs)
	}

	// Fewer allocations never regress, and disabled gates stay silent.
	_, regs, _ = Compare(baseline,
		[]Entry{{Name: "a", NsPerOp: 1000, AllocsPerOp: 10, BytesPerOp: 1 << 10}}, gate)
	if len(regs) != 0 {
		t.Errorf("improvement flagged: %v", regs)
	}
	off := Gate{MaxNsPct: -1, MaxAllocsPct: -1, MaxBytesPct: -1}
	_, regs, _ = Compare(baseline,
		[]Entry{{Name: "a", NsPerOp: 9000, AllocsPerOp: 9000, BytesPerOp: 9 << 20}}, off)
	if len(regs) != 0 {
		t.Errorf("disabled gates flagged: %v", regs)
	}
}

func TestReadJSONRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	want := []Entry{
		{Name: "PickBest/full", NsPerOp: 1234.5, AllocsPerOp: 7, BytesPerOp: 512},
	}
	if err := WriteJSON(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != want[0] {
		t.Fatalf("round trip: got %v, want %v", got, want)
	}
	if _, err := ReadJSON(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("ReadJSON on a missing file should error")
	}
}

// TestMedianRun: a row takes the whole run whose ns/op is the median, its
// allocation figures included, so one outlier run moves neither.
func TestMedianRun(t *testing.T) {
	runs := []Entry{
		{Name: "a", NsPerOp: 900, AllocsPerOp: 7, BytesPerOp: 70},
		{Name: "a", NsPerOp: 5000, AllocsPerOp: 8, BytesPerOp: 80},
		{Name: "a", NsPerOp: 1000, AllocsPerOp: 9, BytesPerOp: 90},
	}
	if got, want := medianRun(runs), (Entry{Name: "a", NsPerOp: 1000, AllocsPerOp: 9, BytesPerOp: 90}); got != want {
		t.Errorf("medianRun = %+v, want %+v", got, want)
	}
}
