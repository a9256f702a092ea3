// Package experiments contains one runner per figure and table of the
// paper's evaluation. Each runner takes an Env (the six benchmark
// traces plus a memoized simulation cache) and produces a stats.Chart
// or stats.Table whose series correspond one-to-one with the paper's
// plot.
package experiments

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"cachewrite/internal/cache"
	"cachewrite/internal/stats"
	"cachewrite/internal/sweep"
	"cachewrite/internal/trace"
	"cachewrite/internal/workload"
)

// Paper sweep axes.
var (
	// CacheSizes is the paper's cache-capacity sweep: 1KB to 128KB.
	CacheSizes = []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10}
	// LineSizes is the paper's line-size sweep: 4B to 64B.
	LineSizes = []int{4, 8, 16, 32, 64}
)

const (
	// StdCacheSize is the fixed capacity for line-size sweeps (8KB).
	StdCacheSize = 8 << 10
	// StdLineSize is the fixed line size for capacity sweeps (16B).
	StdLineSize = 16
)

// memoKey identifies one memoized cache simulation. cache.Config is a
// flat comparable struct, so the key works directly as a map key — no
// fmt.Sprintf string building on the lookup path.
type memoKey struct {
	ti  int
	cfg cache.Config
}

// memoEntry is one memoized result. The once gate gives exact
// compute-once semantics under concurrent calls for the same key
// without holding the memo lock during the computation.
type memoEntry struct {
	once sync.Once
	val  any
	err  error
}

// Env holds the benchmark traces and memoizes simulations so the many
// figures sharing a configuration pay for it once. Every simulation a
// runner reads goes through memoize; each key is computed exactly once
// even when raced.
type Env struct {
	Traces []*trace.Trace

	mu       sync.Mutex
	memo     map[any]*memoEntry
	computes atomic.Uint64
}

// NewEnvCached loads the six paper benchmarks at the given scale
// through the on-disk trace cache at cacheDir (see
// workload.GenerateCached); an empty dir generates from scratch.
func NewEnvCached(scale int, cacheDir string) (*Env, error) {
	ts, err := workload.GenerateAllCached(cacheDir, scale)
	if err != nil {
		return nil, err
	}
	return NewEnvFromTraces(ts), nil
}

// NewEnvFromTraces wraps pre-generated traces (tests use this with
// truncated traces).
func NewEnvFromTraces(ts []*trace.Trace) *Env {
	return &Env{Traces: ts}
}

// entry returns the memo entry for key, creating it if needed. The
// lock is held only for the map access, never for a simulation.
func (e *Env) entry(key any) *memoEntry {
	e.mu.Lock()
	defer e.mu.Unlock()
	ent := e.memo[key]
	if ent == nil {
		if e.memo == nil {
			e.memo = make(map[any]*memoEntry)
		}
		ent = &memoEntry{}
		e.memo[key] = ent
	}
	return ent
}

// memoize returns the result of compute for key, running compute only
// on the first call for that key (a memo miss). Concurrent callers
// asking for the same key compute it exactly once; callers with
// different keys never serialize on each other's computations. key
// must be comparable, and each result type needs its own key type.
func memoize[V any](e *Env, key any, compute func() (V, error)) (V, error) {
	ent := e.entry(key)
	ent.once.Do(func() {
		e.computes.Add(1)
		ent.val, ent.err = compute()
	})
	v, _ := ent.val.(V)
	return v, ent.err
}

// CacheStats runs trace index ti through the configuration (with a
// final flush) and memoizes the result.
func (e *Env) CacheStats(ti int, cfg cache.Config) (cache.Stats, error) {
	return memoize(e, memoKey{ti, cfg}, func() (cache.Stats, error) {
		c, err := cache.New(cfg)
		if err != nil {
			return cache.Stats{}, fmt.Errorf("experiments: %s on %s: %w", cfg, e.Traces[ti].Name, err)
		}
		c.AccessTrace(e.Traces[ti])
		c.Flush()
		return c.Stats(), nil
	})
}

// store seeds the memo with an externally computed result (the gang
// precompute path). If the key was already computed the existing value
// wins; gang and sequential results are bit-identical, so the outcome
// is the same either way.
func (e *Env) store(k memoKey, s cache.Stats) {
	ent := e.entry(k)
	ent.once.Do(func() { ent.val = s })
}

// Computes reports how many memo misses the environment has had: every
// simulation it actually ran, whether a cache, write-cache or coherent
// one. Results seeded by PrecomputeSweep are not counted. Tests use it
// to assert compute-once semantics and that runners share simulations.
func (e *Env) Computes() uint64 { return e.computes.Load() }

// stdConfig returns the baseline write-back fetch-on-write cache used
// throughout §3 and §5.
func stdConfig(size, lineSize int) cache.Config {
	return cache.Config{
		Size: size, LineSize: lineSize, Assoc: 1,
		WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite,
	}
}

// policyConfig is stdConfig under write-miss policy p. No-allocate
// policies are write-through policies (§4), so they pair with
// write-through instead of write-back.
func policyConfig(size, lineSize int, p cache.WriteMissPolicy) cache.Config {
	cfg := stdConfig(size, lineSize)
	cfg.WriteMiss = p
	if !p.Allocates() {
		cfg.WriteHit = cache.WriteThrough
	}
	return cfg
}

// configSweep charts a metric of the standard cache over a geometry
// sweep: one series per benchmark plus their average.
func configSweep(e *Env, id, title, xlabel, ylabel string, xs []int,
	cfgOf func(x int) (size, line int),
	metric func(cs cache.Stats, line int) float64) (Result, error) {
	chart := &stats.Chart{ID: id, Title: title, XLabel: xlabel, YLabel: ylabel, XScale: stats.Log2}
	err := benchSeries(e, chart, "", "average", xs, func(ti, x int) (float64, error) {
		size, line := cfgOf(x)
		cs, err := e.CacheStats(ti, stdConfig(size, line))
		if err != nil {
			return 0, err
		}
		return stats.Pct(metric(cs, line)), nil
	})
	if err != nil {
		return Result{}, err
	}
	return Result{Chart: chart}, nil
}

// benchSeries adds to chart one series per benchmark, labelled with
// the trace name plus suffix and plotting y(ti, x) at each x, then
// their mean labelled avg: the paper's per-benchmark + average style.
func benchSeries(e *Env, chart *stats.Chart, suffix, avg string, xs []int, y func(ti, x int) (float64, error)) error {
	var perBench []stats.Series
	for ti, t := range e.Traces {
		s := stats.Series{Label: t.Name + suffix}
		for _, x := range xs {
			v, err := y(ti, x)
			if err != nil {
				return err
			}
			s.Point(float64(x), v)
		}
		perBench = append(perBench, s)
		chart.Add(s)
	}
	mean, err := stats.MeanSeries(avg, perBench)
	if err != nil {
		return err
	}
	chart.Add(mean)
	return nil
}

// kb formats a byte count as its KB value for chart X axes.
func kb(bytes int) float64 { return float64(bytes) }

// benchNames returns the trace names in order.
func (e *Env) benchNames() []string {
	names := make([]string, len(e.Traces))
	for i, t := range e.Traces {
		names[i] = t.Name
	}
	return names
}

// SweepConfigs enumerates every cache configuration the paper figures
// consult: the capacity sweep at 16B lines and the line-size sweep at
// 8KB, each under all four write-miss policies (no-allocate policies
// paired with write-through, as in §4).
func SweepConfigs() []cache.Config {
	var cfgs []cache.Config
	add := func(size, line int) {
		for _, p := range cache.WriteMissPolicies() {
			cfgs = append(cfgs, policyConfig(size, line, p))
		}
	}
	for _, size := range CacheSizes {
		add(size, StdLineSize)
	}
	for _, line := range LineSizes {
		if line != StdLineSize {
			add(StdCacheSize, line)
		}
	}
	return cfgs
}

// PrecomputeSweep warms the simulation memo for the full figure sweep.
// Running it before a batch of experiments turns the figure runners
// into pure lookups; it is safe to skip, since every runner computes
// what it needs on demand. The sweep is run by the gang engine — each
// trace's event slice is streamed once for a whole shard of
// configurations — on a pool of opt.Workers (< 1 means GOMAXPROCS)
// that abandons remaining work on the first error or cancellation. A
// non-empty opt.Checkpoint makes the sweep crash-safe (completed units
// are journaled and a re-run resumes instead of recomputing),
// opt.SoftDeadline arms the worker watchdog, and opt.Retries bounds
// re-attempts of failed units. paperfigs uses this to survive SIGKILL
// mid-sweep.
func (e *Env) PrecomputeSweep(ctx context.Context, opt sweep.Options) error {
	cfgs := SweepConfigs()
	var units []sweep.Unit
	for ti, t := range e.Traces {
		units = append(units, sweep.Shard(ti, t, cfgs, opt.Shard)...)
	}
	return sweep.RunUnits(ctx, units, opt, func(u sweep.Unit, stats []cache.Stats) {
		for i, s := range stats {
			e.store(memoKey{u.TraceIndex, u.Cfgs[i]}, s)
		}
	})
}
