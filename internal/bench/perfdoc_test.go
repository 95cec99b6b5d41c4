package bench

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// kilo renders an allocation count the way docs/PERF.md quotes it: one
// decimal below 100k, whole thousands above.
func kilo(n int64) string {
	if n >= 100_000 {
		return fmt.Sprintf("%.0fk", float64(n)/1000)
	}
	return fmt.Sprintf("%.1fk", float64(n)/1000)
}

// TestPerfDocQuotesLedger checks every figure in docs/PERF.md's "Measured
// effect" table — ms/op and allocs/op — against the committed
// BENCH_core.json, so the doc cannot drift from the ledger. A row's first
// word names the benchmark family; its figures come from the family's
// /incremental entry.
func TestPerfDocQuotesLedger(t *testing.T) {
	doc, err := os.ReadFile("../../docs/PERF.md")
	if err != nil {
		t.Fatal(err)
	}
	entries, err := ReadJSON("../../BENCH_core.json")
	if err != nil {
		t.Fatal(err)
	}
	ledger := make(map[string]Entry, len(entries))
	for _, e := range entries {
		ledger[e.Name] = e
	}

	_, section, ok := strings.Cut(string(doc), "\n## Measured effect\n")
	if !ok {
		t.Fatal("docs/PERF.md has no \"Measured effect\" section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	rows := 0
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if !strings.HasPrefix(line, "|") || len(cells) != 3 {
			continue
		}
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		family, _, _ := strings.Cut(cells[0], " ")
		e, ok := ledger[family+"/incremental"]
		if !ok {
			continue // header and separator rows
		}
		rows++
		want := []string{fmt.Sprintf("%.1f", e.NsPerOp/1e6), kilo(e.AllocsPerOp)}
		for i, w := range want {
			if cells[i+1] != w {
				t.Errorf("%s column %d quotes %q, BENCH_core.json gives %q", family, i+1, cells[i+1], w)
			}
		}
	}
	if rows < 2 {
		t.Fatalf("found %d ledger rows in the Measured effect table, want the PickBest and ReduceLarge rows", rows)
	}
}
