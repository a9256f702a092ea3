package cache

import (
	"encoding/json"
	"testing"

	"cachewrite/internal/trace"
)

func TestReplacementString(t *testing.T) {
	if LRU.String() != "lru" || FIFO.String() != "fifo" || Random.String() != "random" {
		t.Error("replacement names wrong")
	}
	if Replacement(9).String() == "" {
		t.Error("unknown replacement should render")
	}
}

func TestConfigValidateVariants(t *testing.T) {
	base := cfg8k16(WriteBack, WriteValidate)
	ok := base
	ok.Replacement = FIFO
	ok.ValidGranularity = 4
	ok.WVMissWriteThrough = true
	if err := ok.Validate(); err != nil {
		t.Fatalf("good variant config rejected: %v", err)
	}
	bad := base
	bad.Replacement = Replacement(9)
	if bad.Validate() == nil {
		t.Error("bad replacement accepted")
	}
	bad = base
	bad.ValidGranularity = 3
	if bad.Validate() == nil {
		t.Error("non-pow2 granularity accepted")
	}
	bad = base
	bad.ValidGranularity = 32 // > 16B line
	if bad.Validate() == nil {
		t.Error("granularity beyond line size accepted")
	}
	bad = cfg8k16(WriteBack, FetchOnWrite)
	bad.WVMissWriteThrough = true
	if bad.Validate() == nil {
		t.Error("WVMissWriteThrough without write-validate accepted")
	}
}

func TestGranularityDefault(t *testing.T) {
	c := Config{}
	if c.Granularity() != 1 {
		t.Errorf("default granularity = %d", c.Granularity())
	}
	c.ValidGranularity = 8
	if c.Granularity() != 8 {
		t.Errorf("granularity = %d", c.Granularity())
	}
}

// TestFIFOReplacement: FIFO evicts the oldest allocation even if it was
// just touched.
func TestFIFOReplacement(t *testing.T) {
	cfg := Config{Size: 64, LineSize: 16, Assoc: 2,
		WriteHit: WriteBack, WriteMiss: FetchOnWrite, Replacement: FIFO}
	c := MustNew(cfg)
	c.Access(rd(0x00, 4)) // set 0, allocated first
	c.Access(rd(0x40, 4)) // set 0, allocated second
	c.Access(rd(0x00, 4)) // touch the first — FIFO must ignore this
	c.Access(rd(0x80, 4)) // replaces 0x00 (oldest), not 0x40
	if c.Probe(0x00).Present {
		t.Error("FIFO kept the oldest line")
	}
	if !c.Probe(0x40).Present {
		t.Error("FIFO evicted the younger line")
	}
}

// TestLRUVsFIFODiffer: the same trace distinguishes the two policies.
func TestLRUVsFIFODiffer(t *testing.T) {
	mkTrace := func() *trace.Trace {
		tr := &trace.Trace{}
		// Pattern with reuse of the oldest line.
		for i := 0; i < 200; i++ {
			tr.Append(rd(uint32(0x00), 4))
			tr.Append(rd(uint32(0x40+(i%3)*0x40), 4))
		}
		return tr
	}
	lru := MustNew(Config{Size: 64, LineSize: 16, Assoc: 2,
		WriteHit: WriteBack, WriteMiss: FetchOnWrite, Replacement: LRU})
	fifo := MustNew(Config{Size: 64, LineSize: 16, Assoc: 2,
		WriteHit: WriteBack, WriteMiss: FetchOnWrite, Replacement: FIFO})
	lru.AccessTrace(mkTrace())
	fifo.AccessTrace(mkTrace())
	if lru.Stats().Misses() >= fifo.Stats().Misses() {
		t.Errorf("LRU (%d misses) should beat FIFO (%d) on a reuse-the-hot-line pattern",
			lru.Stats().Misses(), fifo.Stats().Misses())
	}
}

// TestRandomReplacementDeterministic: two identical runs replace
// identically (the RNG is seeded constant).
func TestRandomReplacementDeterministic(t *testing.T) {
	run := func() Stats {
		c := MustNew(Config{Size: 256, LineSize: 16, Assoc: 4,
			WriteHit: WriteBack, WriteMiss: FetchOnWrite, Replacement: Random})
		for i := 0; i < 2000; i++ {
			c.Access(rd(uint32((i*97)%4096)&^3, 4))
		}
		return c.Stats()
	}
	if run() != run() {
		t.Error("random replacement is not deterministic")
	}
}

// TestWVMissWriteThrough: the multiprocessor-safe variant sends missing
// writes through and leaves the allocated line clean.
func TestWVMissWriteThrough(t *testing.T) {
	cfg := cfg8k16(WriteBack, WriteValidate)
	cfg.WVMissWriteThrough = true
	c := MustNew(cfg)
	c.Access(wr(0x200, 8))
	s := c.Stats()
	if s.WriteThroughs != 1 || s.WriteThroughBytes != 8 {
		t.Errorf("write-throughs = %d (%dB), want 1 (8B)", s.WriteThroughs, s.WriteThroughBytes)
	}
	st := c.Probe(0x200)
	if st.Valid != 0x00ff {
		t.Errorf("valid = %#x, want partial", st.Valid)
	}
	if st.Dirty != 0 {
		t.Errorf("dirty = %#x, want clean (data went through)", st.Dirty)
	}
	// Hits still follow plain write-back: a second write dirties.
	c.Access(wr(0x200, 8))
	if st := c.Probe(0x200); st.Dirty != 0x00ff {
		t.Errorf("write hit did not dirty the line: %#x", st.Dirty)
	}
	if c.Stats().WriteThroughs != 1 {
		t.Error("write hit went through in write-back mode")
	}
}

// TestGranularityFallbackOnMiss: with 8B valid granularity, a 4B write
// miss cannot write-validate and falls back to fetch-on-write.
func TestGranularityFallbackOnMiss(t *testing.T) {
	cfg := cfg8k16(WriteBack, WriteValidate)
	cfg.ValidGranularity = 8
	c := MustNew(cfg)
	c.Access(wr(0x200, 4))
	s := c.Stats()
	if s.Fetches != 1 || s.FetchedWriteMisses != 1 || s.EliminatedWriteMisses != 0 {
		t.Errorf("fallback not taken: fetches=%d fetched=%d eliminated=%d",
			s.Fetches, s.FetchedWriteMisses, s.EliminatedWriteMisses)
	}
	if st := c.Probe(0x200); st.Valid != 0xffff {
		t.Errorf("line should be fully valid after fallback: %#x", st.Valid)
	}
	// An aligned 8B write still write-validates.
	c.Access(wr(0x400, 8))
	s = c.Stats()
	if s.EliminatedWriteMisses != 1 {
		t.Errorf("aligned write did not write-validate: %d", s.EliminatedWriteMisses)
	}
	if st := c.Probe(0x400); st.Valid != 0x00ff {
		t.Errorf("valid = %#x, want the written 8B sub-block", st.Valid)
	}
}

// TestGranularityWriteHitFill: with 8B granularity, a 4B write hitting
// a partially-valid line whose sub-block is invalid forces a fill.
func TestGranularityWriteHitFill(t *testing.T) {
	cfg := cfg8k16(WriteBack, WriteValidate)
	cfg.ValidGranularity = 8
	c := MustNew(cfg)
	c.Access(wr(0x200, 8)) // validate bytes 0-7
	c.Access(wr(0x20c, 4)) // bytes 12-15: half of sub-block 8-15
	s := c.Stats()
	if s.SubblockWriteFills != 1 {
		t.Errorf("sub-block write fills = %d, want 1", s.SubblockWriteFills)
	}
	if s.Fetches != 1 {
		t.Errorf("fetches = %d, want 1", s.Fetches)
	}
	if st := c.Probe(0x200); st.Valid != 0xffff {
		t.Errorf("line should be filled: %#x", st.Valid)
	}
	// The written bytes are dirty per-byte regardless of granularity.
	if st := c.Probe(0x200); st.Dirty != 0x00ff|0xf000 {
		t.Errorf("dirty = %#x", st.Dirty)
	}
}

// TestGranularityAlignedHitNoFill: an aligned 8B write into the invalid
// half marks it valid without fetching.
func TestGranularityAlignedHitNoFill(t *testing.T) {
	cfg := cfg8k16(WriteBack, WriteValidate)
	cfg.ValidGranularity = 8
	c := MustNew(cfg)
	c.Access(wr(0x200, 8))
	c.Access(wr(0x208, 8))
	s := c.Stats()
	if s.SubblockWriteFills != 0 || s.Fetches != 0 {
		t.Errorf("aligned writes fetched: fills=%d fetches=%d", s.SubblockWriteFills, s.Fetches)
	}
	if st := c.Probe(0x200); st.Valid != 0xffff {
		t.Errorf("valid = %#x", st.Valid)
	}
}

// TestGranularityOneMatchesDefault: granularity 1 and 4 are identical
// for word-aligned traces.
func TestGranularityOneMatchesDefault(t *testing.T) {
	tr := randomTrace(3, 3000)
	base := cfg8k16(WriteBack, WriteValidate)
	g1 := MustNew(base)
	cfg4 := base
	cfg4.ValidGranularity = 4
	g4 := MustNew(cfg4)
	g1.AccessTrace(tr)
	g4.AccessTrace(tr)
	if g1.Stats() != g4.Stats() {
		t.Error("4B granularity differs from per-byte on a word-aligned trace")
	}
}

// TestGranularityDegradesWVBenefit: coarser valid bits can only reduce
// write-validate's eliminated misses.
func TestGranularityDegradesWVBenefit(t *testing.T) {
	tr := randomTrace(5, 4000)
	prev := ^uint64(0)
	for _, g := range []int{1, 8, 16} {
		cfg := cfg8k16(WriteBack, WriteValidate)
		cfg.ValidGranularity = g
		c := MustNew(cfg)
		c.AccessTrace(tr)
		el := c.Stats().EliminatedWriteMisses
		if el > prev {
			t.Errorf("granularity %d eliminated more misses (%d) than finer (%d)", g, el, prev)
		}
		prev = el
	}
}

func TestSeedDirty(t *testing.T) {
	c := MustNew(cfg8k16(WriteBack, FetchOnWrite))
	if err := c.SeedDirty(1.0, 0.5, 7); err != nil {
		t.Fatal(err)
	}
	if c.ResidentLines() != 512 {
		t.Fatalf("resident = %d, want all 512", c.ResidentLines())
	}
	dirty := c.DirtyLines()
	if dirty < 200 || dirty > 312 {
		t.Errorf("dirty lines = %d, want ~256", dirty)
	}
	// Seeded tags never match real addresses: the first access to any
	// low address must miss and evict a seeded victim.
	c.Access(rd(0x100, 4))
	s := c.Stats()
	if s.ReadMissEvents != 1 || s.Victims != 1 {
		t.Errorf("misses=%d victims=%d, want 1/1", s.ReadMissEvents, s.Victims)
	}
	// Statistically, evicting dirty seeded lines produces write-back
	// traffic immediately — the methodology's whole point.
	for i := 0; i < 200; i++ {
		c.Access(rd(uint32(0x1000+i*16), 4))
	}
	if c.Stats().Writebacks == 0 {
		t.Error("no write-back traffic from seeded dirty lines")
	}
}

func TestSeedDirtyValidation(t *testing.T) {
	c := MustNew(cfg8k16(WriteBack, FetchOnWrite))
	if err := c.SeedDirty(1.5, 0, 1); err == nil {
		t.Error("bad fraction accepted")
	}
	if err := c.SeedDirty(0.5, 0.5, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.SeedDirty(0.5, 0.5, 1); err == nil {
		t.Error("seeding a non-empty cache accepted")
	}
}

func TestSeedDirtyDeterministic(t *testing.T) {
	a := MustNew(cfg8k16(WriteBack, FetchOnWrite))
	b := MustNew(cfg8k16(WriteBack, FetchOnWrite))
	if err := a.SeedDirty(0.7, 0.5, 42); err != nil {
		t.Fatal(err)
	}
	if err := b.SeedDirty(0.7, 0.5, 42); err != nil {
		t.Fatal(err)
	}
	if a.ResidentLines() != b.ResidentLines() || a.DirtyLines() != b.DirtyLines() {
		t.Error("seeding not deterministic")
	}
}

// backsideRecorder records every backside callback for direct cache
// tests (hierarchy has its own integration coverage).
type backsideRecorder struct {
	fetches, writebacks, words int
	victims                    int
	lastFetchAddr              uint32
}

func (r *backsideRecorder) FetchLine(addr uint32, size int) {
	r.fetches++
	r.lastFetchAddr = addr
}
func (r *backsideRecorder) WritebackLine(addr uint32, size, dirtyBytes int) { r.writebacks++ }
func (r *backsideRecorder) WriteWord(addr uint32, size uint8)               { r.words++ }
func (r *backsideRecorder) ObserveVictim(addr uint32, size, dirtyBytes int) { r.victims++ }

func TestBacksideCallbacks(t *testing.T) {
	c := MustNew(cfg8k16(WriteBack, FetchOnWrite))
	rec := &backsideRecorder{}
	c.SetBackside(rec)
	c.Access(wr(0x100, 8))       // fetch-on-write: 1 fetch
	c.Access(rd(0x100+8<<10, 4)) // conflict: dirty victim writeback + fetch
	if rec.fetches != 2 || rec.writebacks != 1 || rec.victims != 1 {
		t.Errorf("callbacks: %+v", rec)
	}
	if rec.lastFetchAddr != 0x100+8<<10 {
		t.Errorf("fetch addr = %#x", rec.lastFetchAddr)
	}
	// Write-through words reach the backside too.
	wt := MustNew(cfg8k16(WriteThrough, WriteAround))
	rec2 := &backsideRecorder{}
	wt.SetBackside(rec2)
	wt.Access(wr(0x200, 4))
	if rec2.words != 1 {
		t.Errorf("write-through words = %d", rec2.words)
	}
	// Detach: no further callbacks.
	wt.SetBackside(nil)
	wt.Access(wr(0x300, 4))
	if rec2.words != 1 {
		t.Error("detached backside still called")
	}
}

func TestInvalidateRangeDirect(t *testing.T) {
	c := MustNew(cfg8k16(WriteBack, FetchOnWrite))
	c.Access(wr(0x100, 8)) // dirty line at 0x100
	c.Access(rd(0x110, 4)) // clean line at 0x110
	lines, dirty := c.InvalidateRange(0x100, 32)
	if lines != 2 || dirty != 8 {
		t.Errorf("invalidated %d lines, %d dirty bytes; want 2/8", lines, dirty)
	}
	if c.Probe(0x100).Present || c.Probe(0x110).Present {
		t.Error("lines survived InvalidateRange")
	}
	if c.Stats().Invalidates != 2 {
		t.Errorf("invalidates = %d", c.Stats().Invalidates)
	}
	// Empty and degenerate ranges.
	if l, d := c.InvalidateRange(0x100, 16); l != 0 || d != 0 {
		t.Error("re-invalidation found lines")
	}
	if l, d := c.InvalidateRange(0x100, 0); l != 0 || d != 0 {
		t.Error("zero-size range invalidated")
	}
}

func TestConfigStringVariantsAndSizes(t *testing.T) {
	if got := fmtSize(512); got != "512B" {
		t.Errorf("fmtSize(512) = %q", got)
	}
	if got := fmtSize(3 << 20); got != "3MB" {
		t.Errorf("fmtSize(3MB) = %q", got)
	}
	if got := fmtSize(1536); got != "1536B" {
		t.Errorf("fmtSize(1536) = %q", got)
	}
}

func TestOutwardMaskClampsAtLineEnd(t *testing.T) {
	c := MustNew(Config{Size: 8 << 10, LineSize: 16, Assoc: 1,
		WriteHit: WriteBack, WriteMiss: FetchOnWrite,
		ValidGranularity: 8, SectorFetch: true})
	// Access touching the last bytes: outward mask must not pass the
	// line end.
	c.Access(rd(0x10c, 4))
	if st := c.Probe(0x100); st.Valid != 0xff00 {
		t.Errorf("valid = %#x, want upper sector only", st.Valid)
	}
}

func TestPolicyTextMarshalling(t *testing.T) {
	type doc struct {
		Hit  WriteHitPolicy  `json:"hit"`
		Miss WriteMissPolicy `json:"miss"`
		Repl Replacement     `json:"repl"`
	}
	in := doc{Hit: WriteBack, Miss: WriteValidate, Repl: FIFO}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"hit":"write-back","miss":"write-validate","repl":"fifo"}`
	if string(b) != want {
		t.Errorf("marshalled %s, want %s", b, want)
	}
	var out doc
	if err := json.Unmarshal([]byte(`{"hit":"wt","miss":"wa","repl":"random"}`), &out); err != nil {
		t.Fatal(err)
	}
	if out.Hit != WriteThrough || out.Miss != WriteAround || out.Repl != Random {
		t.Errorf("unmarshalled %+v", out)
	}
	if json.Unmarshal([]byte(`{"hit":"nope"}`), &out) == nil {
		t.Error("bad hit policy accepted")
	}
	if json.Unmarshal([]byte(`{"miss":"nope"}`), &out) == nil {
		t.Error("bad miss policy accepted")
	}
	if json.Unmarshal([]byte(`{"repl":"nope"}`), &out) == nil {
		t.Error("bad replacement accepted")
	}
	// Names match in any case; short forms are accepted.
	if err := json.Unmarshal([]byte(`{"hit":"WT","miss":"WI","repl":"Fifo"}`), &out); err != nil {
		t.Fatal(err)
	}
	if out.Hit != WriteThrough || out.Miss != WriteInvalidate || out.Repl != FIFO {
		t.Errorf("case-insensitive parse gave %+v", out)
	}
	// Empty policy names: write-hit and write-miss are required, an
	// empty replacement means LRU.
	var hit WriteHitPolicy
	if hit.UnmarshalText(nil) == nil {
		t.Error("empty write-hit accepted")
	}
	var miss WriteMissPolicy
	if miss.UnmarshalText(nil) == nil {
		t.Error("empty write-miss accepted")
	}
	repl := Random
	if err := repl.UnmarshalText(nil); err != nil || repl != LRU {
		t.Errorf("empty replacement gave %v, %v; want lru", repl, err)
	}
}
