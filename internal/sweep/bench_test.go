package sweep

import (
	"context"
	"testing"

	"cachewrite/internal/cache"
	"cachewrite/internal/trace"
)

// paperConfigs mirrors the experiments package's figure sweep: the
// capacity sweep at 16B lines plus the line-size sweep at 8KB, each
// under all four write-miss policies.
func paperConfigs() []cache.Config {
	var cfgs []cache.Config
	add := func(size, line int) {
		for _, p := range cache.WriteMissPolicies() {
			cfg := cache.Config{Size: size, LineSize: line, Assoc: 1,
				WriteHit: cache.WriteBack, WriteMiss: p}
			if p == cache.WriteAround || p == cache.WriteInvalidate {
				cfg.WriteHit = cache.WriteThrough
			}
			cfgs = append(cfgs, cfg)
		}
	}
	for _, size := range []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10} {
		add(size, 16)
	}
	for _, line := range []int{4, 8, 32, 64} {
		add(8<<10, line)
	}
	return cfgs
}

const benchEvents = 100_000

func benchTraces() []*trace.Trace {
	ts := make([]*trace.Trace, 6)
	for i := range ts {
		ts[i] = testTrace(benchEvents)
	}
	return ts
}

// reportPerEvent attaches ns/event and allocs/event metrics, where an
// "event" is one trace event applied to one cache configuration.
func reportPerEvent(b *testing.B, configEvents int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(configEvents), "ns/event")
}

// BenchmarkSweepSequential is the pre-gang baseline: one full pass over
// every trace per configuration, single-threaded.
func BenchmarkSweepSequential(b *testing.B) {
	ts := benchTraces()
	cfgs := paperConfigs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range ts {
			for _, cfg := range cfgs {
				c, err := cache.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				c.AccessTrace(t)
				c.Flush()
				_ = c.Stats()
			}
		}
	}
	b.StopTimer()
	reportPerEvent(b, len(ts)*len(cfgs)*benchEvents)
}

// BenchmarkSweepGang runs the same matrix through the gang engine and
// the parallel scheduler (GOMAXPROCS workers).
func BenchmarkSweepGang(b *testing.B) {
	ts := benchTraces()
	cfgs := paperConfigs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sweep(context.Background(), ts, cfgs, Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportPerEvent(b, len(ts)*len(cfgs)*benchEvents)
}

// BenchmarkSweepGangSingle isolates the single-pass win from the
// parallelism win: gang engine, one worker.
func BenchmarkSweepGangSingle(b *testing.B) {
	ts := benchTraces()
	cfgs := paperConfigs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sweep(context.Background(), ts, cfgs, Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportPerEvent(b, len(ts)*len(cfgs)*benchEvents)
}

// BenchmarkGangAccess measures the steady-state access loop alone:
// pre-built gang, allocation-free event fan-out.
func BenchmarkGangAccess(b *testing.B) {
	t := testTrace(benchEvents)
	cfgs := paperConfigs()[:ShardSize]
	caches := make([]*cache.Cache, len(cfgs))
	for i, cfg := range cfgs {
		caches[i] = cache.MustNew(cfg)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range t.Events {
			for _, c := range caches {
				c.Access(e)
			}
		}
	}
	b.StopTimer()
	reportPerEvent(b, len(cfgs)*benchEvents)
}

// TestAccessZeroAlloc pins the acceptance criterion that the
// steady-state access loop performs zero allocations per event.
func TestAccessZeroAlloc(t *testing.T) {
	tr := testTrace(5000)
	c := cache.MustNew(cache.Config{Size: 8 << 10, LineSize: 16, Assoc: 1,
		WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite})
	// Warm once so steady state (not cold-map growth) is measured.
	c.AccessTrace(tr)
	if av := testing.AllocsPerRun(10, func() { c.AccessTrace(tr) }); av != 0 {
		t.Fatalf("steady-state access loop allocates: %v allocs/run", av)
	}
}
