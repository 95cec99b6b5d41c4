package ir

import "testing"

func TestIsSpillSlot(t *testing.T) {
	for _, tag := range []string{"", "p", "b", "c"} {
		if sym := SpillSlot(tag, "v3"); !IsSpillSlot(sym) {
			t.Errorf("IsSpillSlot(%q) = false", sym)
		}
	}
	for _, sym := range []string{"spill", "spillover", "spills", "spillx.v", "spill_a", "a.spill", "out"} {
		if IsSpillSlot(sym) {
			t.Errorf("IsSpillSlot(%q) = true", sym)
		}
	}
}

// TestMemDiffUserSpillPrefix: a difference confined to a user symbol that
// starts with "spill" is a real difference; one confined to a spill slot
// is not.
func TestMemDiffUserSpillPrefix(t *testing.T) {
	want, got := NewState(), NewState()
	want.StoreInt("spillover", 0, 1)
	got.StoreInt("spillover", 0, 2)
	d := MemDiff(want, got)
	if d == nil || d.Addr != (Addr{"spillover", 0}) || d.Want.Int() != 1 || d.Got.Int() != 2 {
		t.Fatalf("MemDiff = %+v, want spillover[0] = 2, want 1", d)
	}
	if msg := d.Error(); msg != "mem spillover[0] = 2, want 1" {
		t.Errorf("Error() = %q", msg)
	}

	want, got = NewState(), NewState()
	got.StoreInt(SpillSlot("", "x"), 0, 7)
	got.StoreInt("out", 0, 0) // an explicit zero reads like an absent cell
	if d := MemDiff(want, got); d != nil {
		t.Errorf("MemDiff = %+v, want nil", d)
	}
}

// TestMemDiffFirstCell: with several mismatches the least (Sym, Off) cell
// is reported, the same one on every call, whichever state holds it.
func TestMemDiffFirstCell(t *testing.T) {
	want, got := NewState(), NewState()
	for off := int64(0); off < 8; off++ {
		want.StoreInt("b", off, off)
		got.StoreInt("b", off, off)
	}
	got.StoreInt("b", 5, 50)
	got.StoreInt("b", 3, 30)
	want.StoreInt("c", 0, 1)
	for i := 0; i < 20; i++ {
		d := MemDiff(want, got)
		if d == nil || d.Addr != (Addr{"b", 3}) {
			t.Fatalf("call %d: MemDiff = %+v, want b[3]", i, d)
		}
	}
	got.StoreInt("a", 9, 1) // present only in got
	if d := MemDiff(want, got); d == nil || d.Addr != (Addr{"a", 9}) || d.Want != 0 {
		t.Fatalf("MemDiff = %+v, want a[9]", d)
	}
}
