package sweep

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"cachewrite/internal/cache"
	"cachewrite/internal/trace"
)

// testTrace builds a deterministic LCG-driven mixed trace with hot and
// cold regions, both kinds, several sizes, and (for small line sizes)
// line-crossing accesses.
func testTrace(n int) *trace.Trace {
	tr := &trace.Trace{Name: "sweeptest"}
	state := uint32(99991)
	next := func() uint32 { state = state*1664525 + 1013904223; return state }
	for i := 0; i < n; i++ {
		r := next()
		addr := (r % (1 << 15)) &^ 3
		size := uint8(4)
		switch r % 4 {
		case 0:
			size = 8
		case 1:
			size = 3 // odd size: exercises the line-crossing slow path
		}
		k := trace.Read
		if r%3 == 0 {
			k = trace.Write
		}
		tr.Append(trace.Event{Addr: addr, Size: size, Gap: uint16(r % 5), Kind: k})
	}
	return tr
}

// policyConfigs enumerates every write-hit x write-miss combination at
// a fixed geometry, plus sub-block and sector variants.
func policyConfigs() []cache.Config {
	var cfgs []cache.Config
	for _, hit := range []cache.WriteHitPolicy{cache.WriteThrough, cache.WriteBack} {
		for _, miss := range cache.WriteMissPolicies() {
			for _, line := range []int{4, 16, 64} {
				c := cache.Config{Size: 4 << 10, LineSize: line, Assoc: 1, WriteHit: hit, WriteMiss: miss}
				if c.Validate() == nil {
					cfgs = append(cfgs, c)
				}
				c.Assoc = 2
				if c.Validate() == nil {
					cfgs = append(cfgs, c)
				}
				c.Assoc = 1
				c.ValidGranularity = 4
				c.SectorFetch = line >= 16
				if c.Validate() == nil {
					cfgs = append(cfgs, c)
				}
			}
		}
	}
	return cfgs
}

// singleUnits pairs the trace with each configuration alone: one unit
// per configuration.
func singleUnits(tr *trace.Trace, cfgs []cache.Config) []Unit {
	units := make([]Unit, len(cfgs))
	for i := range cfgs {
		units[i] = Unit{Trace: tr, Cfgs: cfgs[i : i+1], Base: i}
	}
	return units
}

// sequential is the baseline the gang engine must match bit-for-bit:
// one full pass over the trace per configuration.
func sequential(t *testing.T, tr *trace.Trace, cfgs []cache.Config) []cache.Stats {
	t.Helper()
	out := make([]cache.Stats, len(cfgs))
	for i, cfg := range cfgs {
		c, err := cache.New(cfg)
		if err != nil {
			t.Fatalf("cache.New(%s): %v", cfg, err)
		}
		c.AccessTrace(tr)
		c.Flush()
		out[i] = c.Stats()
	}
	return out
}

// TestGangMatchesSequential pins the tentpole guarantee: gang-pass
// stats are identical to per-config sequential stats for every
// write-hit/write-miss policy combination (and sub-block variants).
func TestGangMatchesSequential(t *testing.T) {
	tr := testTrace(30000)
	cfgs := policyConfigs()
	if len(cfgs) < 8 {
		t.Fatalf("want at least the 2x4 policy matrix, got %d configs", len(cfgs))
	}
	want := sequential(t, tr, cfgs)
	got, err := Gang(tr, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: gang stats differ from sequential:\n gang %+v\n seq  %+v", cfgs[i], got[i], want[i])
		}
	}
}

func TestGangBadConfig(t *testing.T) {
	tr := testTrace(10)
	if _, err := Gang(tr, []cache.Config{{}}); err == nil {
		t.Fatal("Gang accepted an invalid configuration")
	}
}

func TestShardPartitions(t *testing.T) {
	tr := testTrace(1)
	cfgs := policyConfigs()
	units := Shard(3, tr, cfgs)
	n := 0
	for i, u := range units {
		if u.TraceIndex != 3 || u.Trace != tr {
			t.Fatalf("unit %d has wrong trace identity", i)
		}
		if u.Base != n {
			t.Fatalf("unit %d: base %d, want %d", i, u.Base, n)
		}
		if len(u.Cfgs) > ShardSize || len(u.Cfgs) == 0 {
			t.Fatalf("unit %d: shard of %d configs", i, len(u.Cfgs))
		}
		for j, cfg := range u.Cfgs {
			if cfg != cfgs[n+j] {
				t.Fatalf("unit %d config %d out of order", i, j)
			}
		}
		n += len(u.Cfgs)
	}
	if n != len(cfgs) {
		t.Fatalf("shards cover %d configs, want %d", n, len(cfgs))
	}
	if len(units) != (len(cfgs)+ShardSize-1)/ShardSize {
		t.Fatalf("%d configs split into %d units", len(cfgs), len(units))
	}
}

// TestSweepMatchesSequential checks the full scheduler path assembles
// results in the right [trace][config] slots.
func TestSweepMatchesSequential(t *testing.T) {
	traces := []*trace.Trace{testTrace(5000), testTrace(8000).Slice(1000, 8000)}
	traces[1].Name = "sweeptest2"
	cfgs := policyConfigs()[:10]
	got, err := Sweep(context.Background(), traces, cfgs, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for ti, tr := range traces {
		want := sequential(t, tr, cfgs)
		for i := range cfgs {
			if !reflect.DeepEqual(got[ti][i], want[i]) {
				t.Errorf("trace %d %s: sweep stats differ from sequential", ti, cfgs[i])
			}
		}
	}
}

// TestRunErrorNoDeadlock is the regression test for the figure-precompute
// deadlock: with a single worker hitting an error on the first unit and
// many units still queued, RunUnits must return the error promptly instead
// of blocking on an abandoned work queue.
func TestRunErrorNoDeadlock(t *testing.T) {
	tr := testTrace(100)
	bad := Unit{Trace: tr, Cfgs: []cache.Config{{}}} // invalid: fails in cache.New
	units := []Unit{bad}
	for i := 0; i < 256; i++ {
		units = append(units, singleUnits(tr, policyConfigs()[:2])...)
	}
	done := make(chan error, 1)
	go func() {
		done <- RunUnits(context.Background(), units, Options{Workers: 1}, nil)
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("RunUnits returned nil for a failing unit")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunUnits deadlocked after a unit error")
	}
}

func TestRunFirstErrorWins(t *testing.T) {
	tr := testTrace(100)
	units := []Unit{
		{Trace: tr, Cfgs: []cache.Config{{Size: 3}}},
		{Trace: tr, Cfgs: []cache.Config{{Size: 5}}},
	}
	err := RunUnits(context.Background(), units, Options{Workers: 2}, nil)
	if err == nil {
		t.Fatal("RunUnits returned nil for failing units")
	}
}

func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr := testTrace(100)
	err := RunUnits(ctx, singleUnits(tr, policyConfigs()), Options{Workers: 2}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunUnits on cancelled context: err = %v, want context.Canceled", err)
	}
}

func TestRunEmptyAndNilCollect(t *testing.T) {
	if err := RunUnits(context.Background(), nil, Options{Workers: 4}, nil); err != nil {
		t.Fatalf("RunUnits with no units: %v", err)
	}
	tr := testTrace(100)
	if err := RunUnits(context.Background(), singleUnits(tr, policyConfigs()[:3]), Options{}, nil); err != nil {
		t.Fatalf("RunUnits with default workers and nil collect: %v", err)
	}
}

// TestUnevenDurationsByteIdentical injects wildly uneven unit
// durations (one 60k-event trace next to 300-event traces) and
// asserts the scheduler finishes every unit exactly once, reports a
// valid worker index for each, and produces results byte-identical to
// the sequential baseline — the end-to-end guarantee that the pool
// never corrupts or drops work.
func TestUnevenDurationsByteIdentical(t *testing.T) {
	traces := []*trace.Trace{testTrace(60000), testTrace(300), testTrace(300), testTrace(300)}
	for i, tr := range traces {
		tr.Name = string(rune('a' + i))
	}
	cfgs := policyConfigs()

	var mu sync.Mutex
	done := map[string]int{}
	workersSeen := map[int]bool{}
	opt := Options{
		Workers: 4,
		OnEvent: func(e Event) {
			if e.Kind == UnitDone {
				mu.Lock()
				done[e.Unit]++
				workersSeen[e.Worker] = true
				mu.Unlock()
			}
		},
	}
	got, err := Sweep(context.Background(), traces, cfgs, opt)
	if err != nil {
		t.Fatal(err)
	}
	for ti, tr := range traces {
		want := sequential(t, tr, cfgs)
		for i := range cfgs {
			if !reflect.DeepEqual(got[ti][i], want[i]) {
				t.Errorf("trace %d %s: pooled results differ from sequential", ti, cfgs[i])
			}
		}
	}
	wantUnits := 0
	for range traces {
		wantUnits += (len(cfgs) + ShardSize - 1) / ShardSize
	}
	if len(done) != wantUnits {
		t.Errorf("%d distinct units completed, want %d", len(done), wantUnits)
	}
	for key, n := range done {
		if n != 1 {
			t.Errorf("unit %s completed %d times", key, n)
		}
	}
	for w := range workersSeen {
		if w < 0 || w >= 4 {
			t.Errorf("UnitDone reported out-of-range worker %d", w)
		}
	}
}

// TestFanoutZeroAlloc pins the batched gang inner loop at zero
// allocations per window, covering decode + every kernel class in one
// mixed gang — the fanout-level companion of TestAccessZeroAlloc.
func TestFanoutZeroAlloc(t *testing.T) {
	tr := testTrace(4000)
	cfgs := []cache.Config{
		// Direct-mapped kernel.
		{Size: 8 << 10, LineSize: 16, Assoc: 1, WriteHit: cache.WriteBack, WriteMiss: cache.WriteValidate},
		{Size: 8 << 10, LineSize: 16, Assoc: 1, WriteHit: cache.WriteThrough, WriteMiss: cache.WriteAround},
		// Set-associative kernel (same geometry as the 4KB direct one).
		{Size: 16 << 10, LineSize: 16, Assoc: 2, WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite},
		// Generic fallback (sub-block granularity).
		{Size: 8 << 10, LineSize: 16, Assoc: 1, WriteHit: cache.WriteBack, WriteMiss: cache.WriteValidate, ValidGranularity: 4},
	}
	caches := make([]*cache.Cache, len(cfgs))
	for i, cfg := range cfgs {
		caches[i] = cache.MustNew(cfg)
	}
	groups := groupByGeometry(caches)
	dec := make([]cache.Decoded, tr.Len())
	// Warm once so steady state is measured.
	fanout(tr.Events, groups, dec)
	if av := testing.AllocsPerRun(10, func() { fanout(tr.Events, groups, dec) }); av != 0 {
		t.Fatalf("fanout allocates: %v allocs/run", av)
	}
}

// TestGroupByGeometry pins the grouping: same-geometry caches share a
// group in input order, distinct geometries get their own groups in
// first-appearance order.
func TestGroupByGeometry(t *testing.T) {
	mk := func(size, line, assoc int) *cache.Cache {
		return cache.MustNew(cache.Config{Size: size, LineSize: line, Assoc: assoc,
			WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite})
	}
	a := mk(4<<10, 16, 1)  // 256 sets × 16B
	b := mk(8<<10, 16, 2)  // 256 sets × 16B — same geometry as a
	c := mk(8<<10, 16, 1)  // 512 sets × 16B
	d := mk(4<<10, 32, 1)  // 128 sets × 32B
	e := mk(16<<10, 16, 4) // 256 sets × 16B — same geometry as a
	groups := groupByGeometry([]*cache.Cache{a, b, c, d, e})
	want := [][]*cache.Cache{{a, b, e}, {c}, {d}}
	if len(groups) != len(want) {
		t.Fatalf("got %d groups, want %d", len(groups), len(want))
	}
	for i, g := range groups {
		if !reflect.DeepEqual(g.caches, want[i]) {
			t.Errorf("group %d holds wrong members", i)
		}
	}
}
