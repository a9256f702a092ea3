package trace

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	if Read.String() != "read" {
		t.Errorf("Read.String() = %q", Read.String())
	}
	if Write.String() != "write" {
		t.Errorf("Write.String() = %q", Write.String())
	}
	if got := Kind(7).String(); got != "Kind(7)" {
		t.Errorf("Kind(7).String() = %q", got)
	}
}

func TestEventInstructions(t *testing.T) {
	e := Event{Gap: 0}
	if e.Instructions() != 1 {
		t.Errorf("zero-gap event accounts for %d instructions, want 1", e.Instructions())
	}
	e.Gap = 9
	if e.Instructions() != 10 {
		t.Errorf("gap-9 event accounts for %d instructions, want 10", e.Instructions())
	}
}

func TestEventString(t *testing.T) {
	r := Event{Addr: 0x10, Size: 4, Gap: 3, Kind: Read}
	if got := r.String(); got != "r 0x10 4 3" {
		t.Errorf("read String() = %q", got)
	}
	w := Event{Addr: 0x20, Size: 8, Kind: Write}
	if got := w.String(); got != "w 0x20 8 0" {
		t.Errorf("write String() = %q", got)
	}
}

func testTrace() *Trace {
	return &Trace{Name: "t", Events: []Event{
		{Addr: 0, Size: 4, Kind: Read, Gap: 2},
		{Addr: 8, Size: 8, Kind: Write, Gap: 0},
		{Addr: 16, Size: 4, Kind: Read, Gap: 5},
		{Addr: 24, Size: 8, Kind: Write, Gap: 1},
	}}
}

func TestStats(t *testing.T) {
	s := testTrace().Stats()
	if s.Reads != 2 || s.Writes != 2 {
		t.Fatalf("reads=%d writes=%d, want 2/2", s.Reads, s.Writes)
	}
	if s.Refs() != 4 {
		t.Errorf("Refs() = %d, want 4", s.Refs())
	}
	// Instructions: gaps 2+0+5+1 = 8, plus 4 referencing instructions.
	if s.Instructions != 12 {
		t.Errorf("Instructions = %d, want 12", s.Instructions)
	}
	if s.ReadBytes != 8 || s.WriteBytes != 16 {
		t.Errorf("bytes = %d/%d, want 8/16", s.ReadBytes, s.WriteBytes)
	}
	if s.LoadStoreRatio() != 1.0 {
		t.Errorf("LoadStoreRatio = %v, want 1", s.LoadStoreRatio())
	}
}

func TestLoadStoreRatioNoWrites(t *testing.T) {
	tr := &Trace{Events: []Event{{Addr: 0, Size: 4, Kind: Read}}}
	if r := tr.Stats().LoadStoreRatio(); r != 0 {
		t.Errorf("ratio with no writes = %v, want 0", r)
	}
}

func TestValidateOK(t *testing.T) {
	if err := testTrace().Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
}

func TestValidateZeroSize(t *testing.T) {
	tr := &Trace{Events: []Event{{Addr: 0, Size: 0, Kind: Read}}}
	if err := tr.Validate(); err == nil {
		t.Fatal("zero-size event accepted")
	}
}

func TestValidateBadKind(t *testing.T) {
	tr := &Trace{Events: []Event{{Addr: 0, Size: 4, Kind: Kind(9)}}}
	if err := tr.Validate(); err == nil {
		t.Fatal("bad kind accepted")
	}
}

func TestValidateMisaligned(t *testing.T) {
	tr := &Trace{Events: []Event{{Addr: 2, Size: 4, Kind: Read}}}
	if err := tr.Validate(); err == nil {
		t.Fatal("misaligned access accepted")
	}
}

func TestValidateWraparound(t *testing.T) {
	tr := &Trace{Events: []Event{{Addr: 0xffff_fff8, Size: 8, Kind: Read}}}
	if err := tr.Validate(); err != nil {
		t.Fatalf("in-range access at top of space rejected: %v", err)
	}
	tr = &Trace{Events: []Event{{Addr: 0xffff_fffc, Size: 8, Kind: Read}}}
	if err := tr.Validate(); err == nil {
		t.Fatal("wrapping access accepted")
	}
}

func TestSliceAliasesAndAppend(t *testing.T) {
	tr := testTrace()
	s := tr.Slice(1, 3)
	if s.Len() != 2 || s.Events[0].Addr != 8 {
		t.Fatalf("Slice(1,3) = %+v", s.Events)
	}
	if s.Name != tr.Name {
		t.Errorf("slice name %q, want %q", s.Name, tr.Name)
	}
	tr.Append(Event{Addr: 32, Size: 4, Kind: Read})
	if tr.Len() != 5 {
		t.Errorf("Len after Append = %d, want 5", tr.Len())
	}
}

func TestStatsProperty(t *testing.T) {
	// Reads+Writes always equals the event count; instruction count is
	// always at least the event count.
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		tr := &Trace{}
		for i := 0; i < int(n); i++ {
			k := Read
			if r.Intn(2) == 0 {
				k = Write
			}
			tr.Append(Event{
				Addr: uint32(r.Intn(1<<20) * 4),
				Size: 4,
				Gap:  uint16(r.Intn(100)),
				Kind: k,
			})
		}
		s := tr.Stats()
		return s.Reads+s.Writes == uint64(tr.Len()) &&
			s.Instructions >= uint64(tr.Len())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
