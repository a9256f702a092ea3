package timing

import (
	"testing"

	"cachewrite/internal/cache"
	"cachewrite/internal/trace"
)

func baseCfg(miss cache.WriteMissPolicy, hit cache.WriteHitPolicy) Config {
	return Config{
		L1: cache.Config{Size: 1 << 10, LineSize: 16, Assoc: 1,
			WriteHit: hit, WriteMiss: miss},
		FetchLatency:        10,
		WriteBufferEntries:  4,
		WriteRetire:         6,
		VictimBufferEntries: 1,
		WritebackCycles:     6,
	}
}

func rd(addr uint32, gap uint16) trace.Event {
	return trace.Event{Addr: addr, Size: 4, Gap: gap, Kind: trace.Read}
}

func wr(addr uint32, gap uint16) trace.Event {
	return trace.Event{Addr: addr, Size: 4, Gap: gap, Kind: trace.Write}
}

func TestValidate(t *testing.T) {
	if err := baseCfg(cache.FetchOnWrite, cache.WriteBack).Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := baseCfg(cache.FetchOnWrite, cache.WriteBack)
	bad.L1 = cache.Config{}
	if bad.Validate() == nil {
		t.Error("bad L1 accepted")
	}
	bad = baseCfg(cache.FetchOnWrite, cache.WriteBack)
	bad.FetchLatency = -1
	if bad.Validate() == nil {
		t.Error("negative latency accepted")
	}
	bad = baseCfg(cache.FetchOnWrite, cache.WriteBack)
	bad.WriteBufferEntries = -1
	if bad.Validate() == nil {
		t.Error("negative buffer depth accepted")
	}
	if _, err := Evaluate(bad, &trace.Trace{}); err == nil {
		t.Error("Evaluate accepted bad config")
	}
}

func TestBaseCPIIsOne(t *testing.T) {
	// All hits after the first fill: CPI approaches 1.
	tr := &trace.Trace{}
	tr.Append(rd(0x100, 0))
	for i := 0; i < 1000; i++ {
		tr.Append(rd(0x100, 0))
	}
	s, err := Evaluate(baseCfg(cache.FetchOnWrite, cache.WriteBack), tr)
	if err != nil {
		t.Fatal(err)
	}
	if cpi := s.CPI(); cpi > 1.05 {
		t.Errorf("hit-dominated CPI = %v, want ~1", cpi)
	}
}

func TestReadMissStall(t *testing.T) {
	tr := &trace.Trace{Events: []trace.Event{rd(0x100, 0)}}
	s, err := Evaluate(baseCfg(cache.FetchOnWrite, cache.WriteBack), tr)
	if err != nil {
		t.Fatal(err)
	}
	if s.ReadMissStalls != 10 {
		t.Errorf("read miss stalls = %d, want 10", s.ReadMissStalls)
	}
	if s.Cycles != 11 { // 1 instruction + 10 stall
		t.Errorf("cycles = %d, want 11", s.Cycles)
	}
}

// TestWriteMissLatency is the paper's headline latency claim: a write
// miss stalls under fetch-on-write and proceeds immediately under
// write-validate.
func TestWriteMissLatency(t *testing.T) {
	tr := &trace.Trace{Events: []trace.Event{wr(0x100, 0)}}
	fow, err := Evaluate(baseCfg(cache.FetchOnWrite, cache.WriteBack), tr)
	if err != nil {
		t.Fatal(err)
	}
	if fow.WriteMissStalls != 10 {
		t.Errorf("fetch-on-write stalls = %d, want 10", fow.WriteMissStalls)
	}
	wv, err := Evaluate(baseCfg(cache.WriteValidate, cache.WriteBack), tr)
	if err != nil {
		t.Fatal(err)
	}
	if wv.WriteMissStalls != 0 {
		t.Errorf("write-validate stalls = %d, want 0", wv.WriteMissStalls)
	}
	if wv.Cycles >= fow.Cycles {
		t.Errorf("write-validate (%d cycles) not faster than fetch-on-write (%d)", wv.Cycles, fow.Cycles)
	}
}

func TestWriteBufferStall(t *testing.T) {
	// Write-through + write-around: every write is a buffer word. With
	// a 1-entry buffer retiring every 50 cycles, back-to-back writes
	// stall.
	cfg := baseCfg(cache.WriteAround, cache.WriteThrough)
	cfg.WriteBufferEntries = 1
	cfg.WriteRetire = 50
	tr := &trace.Trace{Events: []trace.Event{
		wr(0x100, 0), wr(0x200, 0), wr(0x300, 0),
	}}
	s, err := Evaluate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if s.WriteBufferStalls == 0 {
		t.Error("no write-buffer stalls on a saturating store burst")
	}
	// The buffer does not coalesce: back-to-back stores to the same
	// word each take an entry and stall exactly like distinct words.
	same, err := Evaluate(cfg, &trace.Trace{Events: []trace.Event{
		wr(0x100, 0), wr(0x100, 0), wr(0x100, 0),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if same.WriteBufferStalls != s.WriteBufferStalls {
		t.Errorf("same-word stalls = %d, want %d (as for distinct words)", same.WriteBufferStalls, s.WriteBufferStalls)
	}
	// Unbuffered: every word pays the full retire latency.
	cfg.WriteBufferEntries = 0
	s, err = Evaluate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if s.WriteBufferStalls != 150 {
		t.Errorf("unbuffered stalls = %d, want 150", s.WriteBufferStalls)
	}
}

func TestVictimBufferStall(t *testing.T) {
	// 1KB direct-mapped: dirty lines 0..63 then a conflicting read sweep
	// evicts 64 dirty victims back to back; a 1-entry victim buffer
	// draining at 20 cycles must stall.
	cfg := baseCfg(cache.FetchOnWrite, cache.WriteBack)
	cfg.WritebackCycles = 20
	tr := &trace.Trace{}
	for i := 0; i < 64; i++ {
		tr.Append(wr(uint32(i*16), 0))
	}
	for i := 0; i < 64; i++ {
		tr.Append(rd(uint32(1024+i*16), 0))
	}
	s, err := Evaluate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if s.VictimStalls == 0 {
		t.Error("no victim stalls on a dirty eviction sweep")
	}
	// A deep victim buffer absorbs the burst better.
	cfg.VictimBufferEntries = 64
	s2, err := Evaluate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if s2.VictimStalls >= s.VictimStalls {
		t.Errorf("deep victim buffer did not help: %d vs %d", s2.VictimStalls, s.VictimStalls)
	}
}

// TestLineCrossingChargedPerLine: an access spanning two lines is
// timed line by line, in the order the cache does the work. Each
// line's dirty victim enters the victim buffer just before that line's
// fetch, so the second victim finds the buffer drained during the
// first fetch.
func TestLineCrossingChargedPerLine(t *testing.T) {
	cfg := baseCfg(cache.FetchOnWrite, cache.WriteBack)
	cfg.L1.LineSize = 4
	tr := &trace.Trace{Events: []trace.Event{
		wr(0, 0), wr(4, 0), // two dirty lines in sets 0 and 1
		{Addr: 1024, Size: 8, Kind: trace.Read}, // conflicts with both
	}}
	s, err := Evaluate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if s.VictimStalls != 0 {
		t.Errorf("victim stalls = %d, want 0", s.VictimStalls)
	}
	if s.ReadMissStalls != 20 || s.WriteMissStalls != 20 {
		t.Errorf("miss stalls = %d read / %d write, want 20 / 20", s.ReadMissStalls, s.WriteMissStalls)
	}
}

func TestCPIZeroSafe(t *testing.T) {
	var s Stats
	if s.CPI() != 0 {
		t.Error("zero stats divide by zero")
	}
}

// TestPolicyLatencyOrdering: on a write-miss-heavy stream, total cycles
// order as the paper argues: write-validate fastest, fetch-on-write
// slowest, the no-allocate policies in between (they avoid fetches but
// pay write-buffer pressure).
func TestPolicyLatencyOrdering(t *testing.T) {
	tr := &trace.Trace{}
	for i := 0; i < 4000; i++ {
		// Streaming writes with occasional re-reads of what was written.
		tr.Append(wr(uint32(0x10000+i*8), 2))
		if i%8 == 0 {
			tr.Append(rd(uint32(0x10000+i*8), 1))
		}
	}
	cycles := map[cache.WriteMissPolicy]uint64{}
	for _, p := range cache.WriteMissPolicies() {
		hit := cache.WriteBack
		if p == cache.WriteAround || p == cache.WriteInvalidate {
			hit = cache.WriteThrough
		}
		s, err := Evaluate(baseCfg(p, hit), tr)
		if err != nil {
			t.Fatal(err)
		}
		cycles[p] = s.Cycles
	}
	if cycles[cache.WriteValidate] >= cycles[cache.FetchOnWrite] {
		t.Errorf("write-validate (%d) not faster than fetch-on-write (%d)",
			cycles[cache.WriteValidate], cycles[cache.FetchOnWrite])
	}
	if cycles[cache.WriteInvalidate] >= cycles[cache.FetchOnWrite] {
		t.Errorf("write-invalidate (%d) not faster than fetch-on-write (%d)",
			cycles[cache.WriteInvalidate], cycles[cache.FetchOnWrite])
	}
}
