package coherence

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"cachewrite/internal/cache"
	"cachewrite/internal/hierarchy"
	"cachewrite/internal/trace"
)

func l1cfg(hit cache.WriteHitPolicy, miss cache.WriteMissPolicy) cache.Config {
	return cache.Config{Size: 1 << 10, LineSize: 16, Assoc: 1, WriteHit: hit, WriteMiss: miss}
}

func l2cfg() *cache.Config {
	return &cache.Config{Size: 8 << 10, LineSize: 64, Assoc: 2,
		WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite}
}

func mustSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// hitMissCombos enumerates every write-hit × write-miss policy pair.
func hitMissCombos() []cache.Config {
	var out []cache.Config
	for _, hit := range []cache.WriteHitPolicy{cache.WriteThrough, cache.WriteBack} {
		for _, miss := range cache.WriteMissPolicies() {
			out = append(out, l1cfg(hit, miss))
		}
	}
	return out
}

// synthTrace generates a deterministic reference stream confined to a
// small footprint so cores contend heavily.
func synthTrace(n int, seed uint64, footprint uint32) *trace.Trace {
	rng := seed | 1
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	tr := &trace.Trace{Name: "synth"}
	for i := 0; i < n; i++ {
		r := next()
		e := trace.Event{
			Addr: uint32(r) % footprint &^ 7,
			Size: 4,
			Gap:  uint16(r >> 32 & 7),
			Kind: trace.Read,
		}
		if r>>40&3 == 0 {
			e.Size = 8
		}
		if r>>48&3 != 0 {
			e.Kind = trace.Write
		}
		tr.Append(e)
	}
	return tr
}

func TestConfigValidate(t *testing.T) {
	good := Config{Cores: 2, L1: l1cfg(cache.WriteBack, cache.FetchOnWrite), L2: l2cfg()}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := []Config{
		{Cores: 0, L1: good.L1},
		{Cores: MaxCores + 1, L1: good.L1},
		{Cores: 2, L1: cache.Config{Size: 3}},
		{Cores: 2, L1: good.L1, Scheme: Scheme(9)},
		{Cores: 2, L1: good.L1, L2: &cache.Config{Size: 512, LineSize: 8, Assoc: 1,
			WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite}}, // L2 line < L1 line
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestSingleCoreEquivalence: a 1-core coherent system is stat-identical
// to the existing single-core hierarchy, for every scheme and every
// write-hit × write-miss policy pair, with and without an L2.
func TestSingleCoreEquivalence(t *testing.T) {
	tr := synthTrace(20000, 42, 1<<15)
	for _, l1 := range hitMissCombos() {
		for _, scheme := range Schemes() {
			for _, withL2 := range []bool{true, false} {
				var sl2, hl2 *cache.Config
				if withL2 {
					sl2, hl2 = l2cfg(), l2cfg()
				}
				sys := mustSystem(t, Config{Cores: 1, L1: l1, L2: sl2, Scheme: scheme})
				h, err := hierarchy.New(hierarchy.Config{L1: l1, L2: hl2})
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range tr.Events {
					sys.Access(0, e)
					h.Access(e)
				}
				sys.Flush()
				h.Flush()
				name := l1.String() + "/" + scheme.String()
				if got, want := sys.L1(0).Stats(), h.L1().Stats(); got != want {
					t.Fatalf("%s: L1 stats differ:\n got %+v\nwant %+v", name, got, want)
				}
				if withL2 {
					if got, want := sys.L2().Stats(), h.L2().Stats(); got != want {
						t.Fatalf("%s: L2 stats differ:\n got %+v\nwant %+v", name, got, want)
					}
				}
				ss, hs := sys.Stats(), h.Stats()
				mirror := [][2]uint64{
					{ss.L1ToL2Transactions, hs.L1ToL2Transactions},
					{ss.L1ToL2Bytes, hs.L1ToL2Bytes},
					{ss.L2ToMemTransactions, hs.L2ToMemTransactions},
					{ss.L2ToMemBytes, hs.L2ToMemBytes},
					{ss.L2ToMemWritebacks, hs.L2ToMemWritebacks},
					{ss.L2ToMemWritebackBytes, hs.L2ToMemWritebackBytes},
					{ss.L2ToMemDirtyBytes, hs.L2ToMemDirtyBytes},
				}
				for i, m := range mirror {
					if m[0] != m[1] {
						t.Fatalf("%s: mirrored field %d: system %d, hierarchy %d", name, i, m[0], m[1])
					}
				}
				if ss.InvalidationsSent+ss.UpdatesSent+ss.Interventions+ss.SharingMisses != 0 {
					t.Fatalf("%s: phantom coherence activity on one core: %+v", name, ss)
				}
			}
		}
	}
}

// l1Link returns what the identity of cache c's back side says crossed
// it: transactions and bytes of fetches, write-backs (flushes counted
// whole-line) and write-throughs.
func l1Link(c *cache.Cache) (tx, bytes uint64) {
	st := c.Stats()
	tx = st.Fetches + st.Writebacks + st.FlushWritebacks + st.WriteThroughs
	bytes = st.FetchBytes + st.WritebackBytesFull +
		st.FlushWritebacks*uint64(c.Config().LineSize) + st.WriteThroughBytes
	return tx, bytes
}

// TestBacksideByteConservation: the shared back side counts exactly
// the traffic the caches in front of it report, at both levels, for
// every policy pair × scheme × {L2, no L2} at 1, 2 and 4 cores. The
// link counters equal the sum over every core's L1; the memory port
// equals the L2's own back-side identity, with dirty bytes from
// write-backs and flushes.
func TestBacksideByteConservation(t *testing.T) {
	base := synthTrace(3000, 11, 1<<13)
	for _, cores := range []int{1, 2, 4} {
		w, err := BuildWorkload(base, WorkloadConfig{Cores: cores, SharedFraction: 0.5, Stagger: 37})
		if err != nil {
			t.Fatal(err)
		}
		for _, l1 := range hitMissCombos() {
			for _, scheme := range Schemes() {
				for _, withL2 := range []bool{true, false} {
					var l2 *cache.Config
					if withL2 {
						l2 = l2cfg()
					}
					sys := mustSystem(t, Config{Cores: cores, L1: l1, L2: l2, Scheme: scheme})
					if err := sys.Run(w); err != nil {
						t.Fatal(err)
					}
					sys.Flush()
					name := l1.String() + "/" + scheme.String()
					st := sys.Stats()
					var tx, bytes uint64
					for i := 0; i < cores; i++ {
						ctx, cb := l1Link(sys.L1(i))
						tx += ctx
						bytes += cb
					}
					if st.L1ToL2Transactions != tx || st.L1ToL2Bytes != bytes {
						t.Fatalf("%s x%d L2=%v: link %d tx / %dB, L1s report %d tx / %dB",
							name, cores, withL2, st.L1ToL2Transactions, st.L1ToL2Bytes, tx, bytes)
					}
					var memTx, memBytes, dirty uint64
					if withL2 {
						memTx, memBytes = l1Link(sys.L2())
						l2s := sys.L2().Stats()
						dirty = l2s.WritebackBytesDirty + l2s.FlushVictimDirtyBytes
					}
					if st.L2ToMemTransactions != memTx || st.L2ToMemBytes != memBytes || st.L2ToMemDirtyBytes != dirty {
						t.Fatalf("%s x%d L2=%v: memory port %d tx / %dB / %d dirty, L2 reports %d tx / %dB / %d dirty",
							name, cores, withL2, st.L2ToMemTransactions, st.L2ToMemBytes, st.L2ToMemDirtyBytes,
							memTx, memBytes, dirty)
					}
				}
			}
		}
	}
}

// TestRecordedStats pins every field of System.Stats() for each
// write-miss policy × scheme at 2 and 4 cores (write-back L1s, shared
// L2, half the granules shared). golden-check covers only Invalidate
// across the policies and fetch-on-write across the schemes; these
// recorded values cover the rest of the grid. At 2 cores no copy
// absorbs HybridK unanswered updates, so hybrid equals update there;
// the 4-core rows exercise its self-invalidation. Each want is
// fmt.Sprint of Stats: the hierarchy.Stats fields, then the coherence
// counters, in declaration order.
func TestRecordedStats(t *testing.T) {
	want := map[string]string{
		"write-validate/invalidate/x2":   "{{7548 120768 5423 347072 2454 157056 56848 0 0 0} 1300 1300 0 0 0 1300 6616 0 1154}",
		"write-validate/update/x2":       "{{6344 101504 5153 329792 2346 150144 54848 0 0 0} 0 0 1315 1315 6640 90 452 0 0}",
		"write-validate/hybrid/x2":       "{{6344 101504 5153 329792 2346 150144 54848 0 0 0} 0 0 1315 1315 6640 90 452 0 0}",
		"write-around/invalidate/x2":     "{{7700 63928 5300 339200 2407 154048 23392 0 0 0} 216 216 0 0 0 112 572 0 206}",
		"write-around/update/x2":         "{{7507 62656 5275 337600 2390 152960 23284 0 0 0} 0 0 285 285 1452 10 48 0 0}",
		"write-around/hybrid/x2":         "{{7507 62656 5275 337600 2390 152960 23284 0 0 0} 0 0 285 285 1452 10 48 0 0}",
		"write-invalidate/invalidate/x2": "{{7908 63860 5449 348736 2471 158144 21636 0 0 0} 79 79 0 0 0 39 204 0 76}",
		"write-invalidate/update/x2":     "{{7874 63720 5453 348992 2470 158080 21632 0 0 0} 0 0 86 86 440 11 52 0 0}",
		"write-invalidate/hybrid/x2":     "{{7874 63720 5453 348992 2470 158080 21632 0 0 0} 0 0 86 86 440 11 52 0 0}",
		"fetch-on-write/invalidate/x2":   "{{12862 205792 6728 430592 2690 172160 59040 0 0 0} 1300 1300 0 0 0 1300 6616 0 1154}",
		"fetch-on-write/update/x2":       "{{12390 198240 6702 428928 2680 171520 58816 0 0 0} 0 0 1315 1315 6640 1061 5384 0 0}",
		"fetch-on-write/hybrid/x2":       "{{12390 198240 6702 428928 2680 171520 58816 0 0 0} 0 0 1315 1315 6640 1061 5384 0 0}",
		"write-validate/invalidate/x4":   "{{15114 241824 14009 896576 6059 387776 107952 0 0 0} 3663 3762 0 0 0 3657 18596 0 3320}",
		"write-validate/update/x4":       "{{11618 185888 13911 890304 5999 383936 105328 0 0 0} 0 0 3752 7284 18964 169 852 0 0}",
		"write-validate/hybrid/x4":       "{{11620 185920 13911 890304 5999 383936 105328 0 0 0} 0 0 3752 7196 18964 171 868 52 47}",
		"write-around/invalidate/x4":     "{{15407 126832 14246 911744 6180 395520 42784 0 0 0} 279 481 0 0 0 135 692 0 466}",
		"write-around/update/x4":         "{{14932 124000 14242 911488 6173 395072 42724 0 0 0} 0 0 626 1715 3208 44 212 0 0}",
		"write-around/hybrid/x4":         "{{14951 124076 14245 911680 6174 395136 42704 0 0 0} 0 0 624 1665 3200 44 212 14 12}",
		"write-invalidate/invalidate/x4": "{{15818 127360 14770 945280 6402 409728 39988 0 0 0} 150 219 0 0 0 60 308 0 211}",
		"write-invalidate/update/x4":     "{{15728 127120 14777 945728 6404 409856 40064 0 0 0} 0 0 241 524 1248 43 204 0 0}",
		"write-invalidate/hybrid/x4":     "{{15732 127124 14777 945728 6404 409856 40052 0 0 0} 0 0 240 514 1240 43 204 4 4}",
		"fetch-on-write/invalidate/x4":   "{{25802 412832 18497 1183808 6304 403456 110976 0 0 0} 3663 3762 0 0 0 3657 18596 0 3320}",
		"fetch-on-write/update/x4":       "{{24786 396576 18479 1182656 6296 402944 110816 0 0 0} 0 0 3752 7284 18964 3213 16312 0 0}",
		"fetch-on-write/hybrid/x4":       "{{24822 397152 18484 1182976 6298 403072 110864 0 0 0} 0 0 3752 7196 18964 3231 16420 52 47}",
	}
	base := synthTrace(4000, 23, 1<<13)
	for _, cores := range []int{2, 4} {
		w, err := BuildWorkload(base, WorkloadConfig{Cores: cores, SharedFraction: 0.5, Stagger: 53})
		if err != nil {
			t.Fatal(err)
		}
		for _, miss := range cache.WriteMissPolicies() {
			for _, scheme := range Schemes() {
				sys := mustSystem(t, Config{Cores: cores, L1: l1cfg(cache.WriteBack, miss), L2: l2cfg(), Scheme: scheme})
				if err := sys.Run(w); err != nil {
					t.Fatal(err)
				}
				sys.Flush()
				name := fmt.Sprintf("%s/%s/x%d", miss, scheme, cores)
				if got := fmt.Sprint(sys.Stats()); got != want[name] {
					t.Errorf("%s:\n got %s\nwant %s", name, got, want[name])
				}
			}
		}
	}
}

// TestSingleWriterInvariant: under heavy contention, no byte is ever
// dirty in more than one private cache — for every coherence scheme ×
// write-hit × write-miss policy combination, checked after every event.
func TestSingleWriterInvariant(t *testing.T) {
	const cores = 3
	traces := make([]*trace.Trace, cores)
	for c := range traces {
		// A tiny footprint shared by all cores: maximal contention.
		traces[c] = synthTrace(1500, uint64(c+1)*977, 512)
	}
	for _, l1 := range hitMissCombos() {
		for _, scheme := range Schemes() {
			sys := mustSystem(t, Config{Cores: cores, L1: l1, Scheme: scheme, L2: l2cfg()})
			name := l1.String() + "/" + scheme.String()
			for i := 0; i < 1500; i++ {
				for c := 0; c < cores; c++ {
					sys.Access(c, traces[c].Events[i])
					if err := sys.CheckSingleWriter(); err != nil {
						t.Fatalf("%s: event %d core %d: %v", name, i, c, err)
					}
				}
			}
		}
	}
}

// TestInvalidateSemantics pins the MSI-style protocol actions and
// counters on a directed two-core scenario.
func TestInvalidateSemantics(t *testing.T) {
	sys := mustSystem(t, Config{Cores: 2,
		L1: l1cfg(cache.WriteBack, cache.FetchOnWrite), L2: l2cfg(), Scheme: Invalidate})
	wr := trace.Event{Addr: 0x100, Size: 4, Kind: trace.Write}
	rd := trace.Event{Addr: 0x100, Size: 4, Kind: trace.Read}

	// Core 0 dirties the line; core 1's fetch must trigger an
	// intervention (core 0 flushes, keeps a clean copy).
	sys.Access(0, wr)
	sys.Access(1, rd)
	if st := sys.Stats(); st.Interventions != 1 || st.InterventionDirtyBytes != 4 {
		t.Fatalf("after remote read: %+v, want 1 intervention of 4 dirty bytes", st)
	}
	if st := sys.L1(0).Probe(0x100); !st.Present || st.Dirty != 0 {
		t.Fatalf("owner after downgrade: %+v, want present and clean", st)
	}

	// Core 1 writes: core 0's copy is invalidated.
	sys.Access(1, wr)
	if st := sys.L1(0).Probe(0x100); st.Present {
		t.Fatal("remote copy survived an invalidating write")
	}
	st := sys.Stats()
	if st.InvalidationsSent != 1 || st.InvalidationsReceived != 1 {
		t.Fatalf("invalidations = sent %d received %d, want 1/1", st.InvalidationsSent, st.InvalidationsReceived)
	}

	// Core 0 re-reads the invalidated line: a sharing miss, counted once.
	sys.Access(0, rd)
	sys.Access(0, rd)
	if st := sys.Stats(); st.SharingMisses != 1 {
		t.Fatalf("sharing misses = %d, want 1", st.SharingMisses)
	}
	if err := sys.CheckSingleWriter(); err != nil {
		t.Fatal(err)
	}
}

// TestUpdateSemantics: a write-update broadcast refreshes remote
// copies in place and transfers the dirty claim to the writer.
func TestUpdateSemantics(t *testing.T) {
	sys := mustSystem(t, Config{Cores: 2,
		L1: l1cfg(cache.WriteBack, cache.FetchOnWrite), L2: l2cfg(), Scheme: Update})
	wr := trace.Event{Addr: 0x200, Size: 4, Kind: trace.Write}
	rd := trace.Event{Addr: 0x200, Size: 4, Kind: trace.Read}

	sys.Access(1, wr) // core 1 owns the line dirty
	sys.Access(0, rd) // core 0 fetches (intervention), both hold copies
	sys.Access(0, wr) // core 0's write updates core 1's copy
	st := sys.Stats()
	if st.UpdatesSent != 1 || st.UpdatesReceived != 1 || st.UpdateTrafficBytes != 4 {
		t.Fatalf("updates = sent %d received %d bytes %d, want 1/1/4", st.UpdatesSent, st.UpdatesReceived, st.UpdateTrafficBytes)
	}
	if st.InvalidationsSent != 0 || st.SharingMisses != 0 {
		t.Fatalf("update scheme produced invalidations or sharing misses: %+v", st)
	}
	p1 := sys.L1(1).Probe(0x200)
	if !p1.Present {
		t.Fatal("updated copy vanished")
	}
	if p1.Dirty&0xf != 0 {
		t.Fatalf("remote dirty claim not released: %#x", p1.Dirty)
	}
	if p0 := sys.L1(0).Probe(0x200); p0.Dirty&0xf == 0 {
		t.Fatal("writer does not own the written bytes")
	}
	if err := sys.CheckSingleWriter(); err != nil {
		t.Fatal(err)
	}
}

// TestHybridSemantics: a copy absorbs updates until HybridK arrive
// with no local reference, then self-invalidates; a local touch resets
// the countdown.
func TestHybridSemantics(t *testing.T) {
	sys := mustSystem(t, Config{Cores: 2,
		L1: l1cfg(cache.WriteBack, cache.FetchOnWrite), L2: l2cfg(), Scheme: Hybrid})
	wr := trace.Event{Addr: 0x300, Size: 4, Kind: trace.Write}
	rd := trace.Event{Addr: 0x300, Size: 4, Kind: trace.Read}

	sys.Access(1, rd) // core 1 caches the line
	for i := 1; i < HybridK; i++ {
		sys.Access(0, wr) // updates 1..HybridK-1: tolerated
		if !sys.L1(1).Probe(0x300).Present {
			t.Fatalf("copy dropped at update %d, before the competitive threshold", i)
		}
	}
	sys.Access(1, rd) // local touch resets the countdown
	for i := 1; i < HybridK; i++ {
		sys.Access(0, wr) // updates 1..HybridK-1 again
		if !sys.L1(1).Probe(0x300).Present {
			t.Fatalf("local touch did not reset the update countdown (dropped at update %d)", i)
		}
	}
	sys.Access(0, wr) // update HybridK: threshold reached, self-invalidate
	if sys.L1(1).Probe(0x300).Present {
		t.Fatal("copy survived past the competitive threshold")
	}
	st := sys.Stats()
	if st.HybridInvalidations != 1 {
		t.Fatalf("hybrid invalidations = %d, want 1", st.HybridInvalidations)
	}
	if want := uint64(2 * (HybridK - 1)); st.UpdatesReceived != want {
		t.Fatalf("updates received = %d, want %d (the tolerated ones)", st.UpdatesReceived, want)
	}
	sys.Access(1, rd)
	if sys.Stats().SharingMisses != 1 {
		t.Fatalf("re-access after self-invalidation not counted as sharing miss: %+v", sys.Stats())
	}
}

// TestRunDeterminism: building and replaying the same workload twice
// yields byte-identical statistics, per L1 and system-wide.
func TestRunDeterminism(t *testing.T) {
	base := synthTrace(4000, 7, 1<<14)
	run := func() []byte {
		w, err := BuildWorkload(base, WorkloadConfig{Cores: 4, SharedFraction: 0.3, Stagger: 100})
		if err != nil {
			t.Fatal(err)
		}
		sys := mustSystem(t, Config{Cores: 4,
			L1: l1cfg(cache.WriteBack, cache.WriteValidate), L2: l2cfg(), Scheme: Hybrid})
		if err := sys.Run(w); err != nil {
			t.Fatal(err)
		}
		sys.Flush()
		if err := sys.CheckSingleWriter(); err != nil {
			t.Fatal(err)
		}
		blob := struct {
			Sys Stats
			L1s []cache.Stats
			L2  cache.Stats
		}{Sys: sys.Stats(), L2: sys.L2().Stats()}
		for i := 0; i < sys.Cores(); i++ {
			blob.L1s = append(blob.L1s, sys.L1(i).Stats())
		}
		b, err := json.Marshal(blob)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("repeated runs differ:\n%s\n%s", a, b)
	}
}

// TestRunRejectsMismatchedWorkload: core-count mismatches are errors,
// not silent truncation.
func TestRunRejectsMismatchedWorkload(t *testing.T) {
	sys := mustSystem(t, Config{Cores: 2, L1: l1cfg(cache.WriteBack, cache.FetchOnWrite)})
	w, err := BuildWorkload(synthTrace(10, 1, 256), WorkloadConfig{Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(w); err == nil {
		t.Fatal("4-core workload accepted by 2-core system")
	}
	if err := sys.Run(nil); err == nil {
		t.Fatal("nil workload accepted")
	}
}

// TestSchemeTrafficTradeoff pins the qualitative contract of the
// protocol family on a producer/consumer pattern: invalidate pays
// sharing misses, update pays broadcast bytes instead, hybrid bounds
// the broadcast tail.
func TestSchemeTrafficTradeoff(t *testing.T) {
	results := map[Scheme]Stats{}
	for _, scheme := range Schemes() {
		sys := mustSystem(t, Config{Cores: 2,
			L1: l1cfg(cache.WriteBack, cache.FetchOnWrite), L2: l2cfg(), Scheme: scheme})
		// Core 1 reads the line once, then core 0 streams writes to it
		// while core 1 periodically re-reads.
		sys.Access(1, trace.Event{Addr: 0x40, Size: 4, Kind: trace.Read})
		for i := 0; i < 64; i++ {
			sys.Access(0, trace.Event{Addr: 0x40, Size: 4, Kind: trace.Write})
			if i%8 == 7 {
				sys.Access(1, trace.Event{Addr: 0x40, Size: 4, Kind: trace.Read})
			}
		}
		results[scheme] = sys.Stats()
	}
	if results[Invalidate].SharingMisses == 0 {
		t.Error("invalidate: producer/consumer produced no sharing misses")
	}
	if results[Update].SharingMisses != 0 {
		t.Error("update: copies should never be lost to coherence")
	}
	if results[Update].UpdateTrafficBytes == 0 {
		t.Error("update: no broadcast traffic recorded")
	}
	if h, u := results[Hybrid].UpdateTrafficBytes, results[Update].UpdateTrafficBytes; h >= u {
		t.Errorf("hybrid broadcast bytes (%d) not below pure update (%d)", h, u)
	}
	if results[Hybrid].HybridInvalidations == 0 {
		t.Error("hybrid: competitive threshold never fired")
	}
}

// TestHybridCountStartsFresh: the competitive count belongs to the
// resident copy, not to the line number or the frame. A copy evicted by
// capacity and refetched starts from zero, and so does the line that
// took over its frame in between.
func TestHybridCountStartsFresh(t *testing.T) {
	sys := mustSystem(t, Config{Cores: 2,
		L1: l1cfg(cache.WriteBack, cache.FetchOnWrite), L2: l2cfg(), Scheme: Hybrid})
	const a, b = 0x300, 0x300 + 1<<10 // one L1 set apart: b evicts a
	rd := func(addr uint32) trace.Event { return trace.Event{Addr: addr, Size: 4, Kind: trace.Read} }
	wr := func(addr uint32) trace.Event { return trace.Event{Addr: addr, Size: 4, Kind: trace.Write} }
	updates := func(addr uint32) {
		t.Helper()
		for i := 1; i < HybridK; i++ {
			sys.Access(0, wr(addr))
			if !sys.L1(1).Probe(addr).Present {
				t.Fatalf("copy of %#x dropped at update %d: its count did not start from zero", addr, i)
			}
		}
	}

	sys.Access(1, rd(a))
	updates(a)           // a's count is HybridK-1
	sys.Access(1, rd(b)) // capacity eviction of a; b takes the frame
	updates(b)
	sys.Access(1, rd(a)) // refetch a, evicting b
	updates(a)
	sys.Access(0, wr(a)) // update HybridK since the refetch
	if sys.L1(1).Probe(a).Present {
		t.Fatal("refetched copy survived past the competitive threshold")
	}
	st := sys.Stats()
	if st.HybridInvalidations != 1 {
		t.Fatalf("hybrid invalidations = %d, want 1", st.HybridInvalidations)
	}
	if want := uint64(3 * (HybridK - 1)); st.UpdatesReceived != want {
		t.Fatalf("updates received = %d, want %d", st.UpdatesReceived, want)
	}
}

// TestSharingMissOutlivesFrame: a line removed by a coherence action
// stays marked after another line reuses its frame, and the mark is
// consumed by the first re-access: a later capacity miss on the same
// line is not a sharing miss.
func TestSharingMissOutlivesFrame(t *testing.T) {
	sys := mustSystem(t, Config{Cores: 2,
		L1: l1cfg(cache.WriteBack, cache.FetchOnWrite), L2: l2cfg(), Scheme: Invalidate})
	const a, b = 0x100, 0x100 + 1<<10 // one L1 set apart
	rd := func(addr uint32) trace.Event { return trace.Event{Addr: addr, Size: 4, Kind: trace.Read} }

	sys.Access(1, rd(a))
	sys.Access(0, trace.Event{Addr: a, Size: 4, Kind: trace.Write}) // invalidates core 1's copy
	sys.Access(1, rd(b))                                            // b reuses the frame
	if n := sys.Stats().SharingMisses; n != 0 {
		t.Fatalf("sharing misses after filling the frame with another line = %d, want 0", n)
	}
	sys.Access(1, rd(a)) // first re-access: a sharing miss
	if n := sys.Stats().SharingMisses; n != 1 {
		t.Fatalf("sharing misses after the re-access = %d, want 1", n)
	}
	sys.Access(1, rd(b)) // evicts a by capacity
	sys.Access(1, rd(a)) // a capacity miss, the mark already consumed
	if n := sys.Stats().SharingMisses; n != 1 {
		t.Fatalf("sharing misses after a capacity miss = %d, want 1 (mark not consumed)", n)
	}
}

// TestLineSetMatchesMap drives the open-addressed sharing-miss set and
// a Go map through the same random adds and takes. Keys come from a
// small range so probe runs collide, wrap and close over deletions.
func TestLineSetMatchesMap(t *testing.T) {
	var set lineSet
	want := map[uint32]bool{}
	rng := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 200000; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		line := uint32(rng>>8) % 700
		if rng&3 == 0 {
			line += 1 << 29 // a high line number too
		}
		if rng>>4&1 == 0 {
			set.add(line)
			want[line] = true
			continue
		}
		if got := set.take(line); got != want[line] {
			t.Fatalf("op %d: take(%d) = %v, want %v", i, line, got, want[line])
		}
		delete(want, line)
	}
	if set.n != len(want) {
		t.Fatalf("set holds %d lines, want %d", set.n, len(want))
	}
	for line := range want {
		if !set.take(line) {
			t.Fatalf("member %d lost", line)
		}
	}
}
