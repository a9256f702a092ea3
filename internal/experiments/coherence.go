package experiments

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"cachewrite/internal/cache"
	"cachewrite/internal/coherence"
	"cachewrite/internal/stats"
	"cachewrite/internal/trace"
)

func init() {
	register("ext-coh-miss", "EXTENSION: multi-core miss rate vs sharing degree per write-miss policy (MSI snooping, shared L2)", 400, extCohMiss)
	register("ext-coh-traffic", "EXTENSION: L1-side bus traffic vs sharing degree per write-miss policy (MSI snooping, shared L2)", 410, extCohTraffic)
	register("ext-coh-schemes", "EXTENSION: invalidate vs update vs competitive-hybrid coherence at 4 cores", 420, extCohSchemes)
}

// Coherence sweep parameters: each benchmark is replicated across the
// sharing degree with a quarter of its 64B address granules shared,
// cores staggered to break lockstep, and a prefix sample per core to
// bound simulation cost (each added core multiplies both the event
// count and the snoop work).
const (
	cohSharedFraction = 0.25
	cohStagger        = 2500
	cohMaxEvents      = 100000
)

// cohDegrees is the sharing-degree sweep: 1 core (the paper's world)
// through 8 cores contending on the shared granules.
var cohDegrees = []int{1, 2, 4, 8}

// cohL2 is the shared second level behind the snooping bus, matching
// the ext-l2policy geometry.
func cohL2() cache.Config {
	return cache.Config{Size: 64 << 10, LineSize: 64, Assoc: 4,
		WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite}
}

// cohRun is one coherent simulation's output: the summed per-core L1
// counters plus the system-level coherence/traffic counters.
type cohRun struct {
	l1  cache.Stats
	sys coherence.Stats
}

// cohBaseKey identifies the memoized base trace of benchmark ti's
// coherent workloads.
type cohBaseKey struct{ ti int }

// cohBase returns the prefix every coherent workload of trace ti
// replays: the first cohMaxEvents events of the trace with its
// occupied 16MB superblocks compacted. The paper traces have sparse
// footprints (yacc touches superblocks near 0x0, 0x10000000 and
// 0x7f000000, spanning 2GB), so no window stride could keep their raw
// images disjoint; compacting first (cache index/offset bits
// untouched) shrinks every footprint below 64MB and the default 128MB
// stride fits all degrees. The slots are ranked over the whole trace,
// as they always were, so the prefix's addresses (and the shared
// granules hashed from them) do not depend on the sample length. It is
// computed once per trace and copied out, so the full compacted trace
// is garbage as soon as this returns.
func cohBase(e *Env, ti int) (*trace.Trace, error) {
	return memoize(e, cohBaseKey{ti}, func() (*trace.Trace, error) {
		t := e.Traces[ti]
		dense, err := trace.CompactRegions(t, 24)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", t.Name, err)
		}
		events := make([]trace.Event, min(dense.Len(), cohMaxEvents))
		copy(events, dense.Events)
		return &trace.Trace{Name: t.Name, Events: events}, nil
	})
}

// cohWorkload builds the N-core workload for trace ti.
func cohWorkload(e *Env, ti, cores int) (*coherence.Workload, error) {
	base, err := cohBase(e, ti)
	if err != nil {
		return nil, err
	}
	w, err := coherence.BuildWorkload(base, coherence.WorkloadConfig{
		Cores:          cores,
		SharedFraction: cohSharedFraction,
		Stagger:        cohStagger,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: %s x%d: %w", base.Name, cores, err)
	}
	return w, nil
}

// cohKey identifies one memoized coherent simulation: trace ti's
// cores-way workload under one write-miss policy and scheme. shared
// marks the no-coherence baseline instead: the same merged schedule
// through a 1-core System, i.e. one L1 all cores share.
type cohKey struct {
	ti     int
	p      cache.WriteMissPolicy
	scheme coherence.Scheme
	cores  int
	shared bool
}

// cohSimulate returns the memoized simulation k. Only on a memo miss
// does it ask workload for the built per-core workload; the memo keeps
// only the small result, so ext-coh-miss and ext-coh-traffic read two
// metrics off one sweep, and ext-coh-schemes shares its 4-core MSI
// runs with them.
func cohSimulate(e *Env, k cohKey, workload func() (*coherence.Workload, error)) (cohRun, error) {
	return memoize(e, k, func() (cohRun, error) {
		w, err := workload()
		if err != nil {
			return cohRun{}, err
		}
		cores := k.cores
		if k.shared {
			cores = 1
		}
		l2 := cohL2()
		sys, err := coherence.New(coherence.Config{Cores: cores,
			L1: policyConfig(StdCacheSize, StdLineSize, k.p), L2: &l2, Scheme: k.scheme})
		if err != nil {
			return cohRun{}, fmt.Errorf("experiments: %s: %w", w.Name, err)
		}
		if k.shared {
			trace.Merge(w.Offsets, w.PerCore, func(_ int, ev trace.Event, _ uint64) { sys.Access(0, ev) })
		} else if err := sys.Run(w); err != nil {
			return cohRun{}, err
		}
		sys.Flush()
		return cohRun{l1: sys.AggregateL1(), sys: sys.Stats()}, nil
	})
}

// cohRunAll returns the simulations keys names, each read through the
// memo. They are grouped by (trace, cores), so each group builds its
// workload once (and only if one of its keys is a memo miss) and drops
// it when done. The groups run on a pool of GOMAXPROCS workers, largest
// core count first, which stops taking groups at the first error and
// returns it. Racing callers still compute each key once.
func cohRunAll(e *Env, keys []cohKey) (map[cohKey]cohRun, error) {
	type group struct {
		ti, cores int
		keys      []int // indices into keys
	}
	var groups []*group
	for i, k := range keys {
		g := slices.IndexFunc(groups, func(g *group) bool { return g.ti == k.ti && g.cores == k.cores })
		if g < 0 {
			g = len(groups)
			groups = append(groups, &group{ti: k.ti, cores: k.cores})
		}
		groups[g].keys = append(groups[g].keys, i)
	}
	slices.SortStableFunc(groups, func(a, b *group) int { return b.cores - a.cores })

	runs := make([]cohRun, len(keys))
	var (
		next   atomic.Int64
		failed atomic.Bool
		once   sync.Once
		first  error
		wg     sync.WaitGroup
	)
	run := func(g *group) error {
		var (
			w    *coherence.Workload
			werr error
		)
		build := func() (*coherence.Workload, error) {
			if w == nil && werr == nil {
				w, werr = cohWorkload(e, g.ti, g.cores)
			}
			return w, werr
		}
		for _, i := range g.keys {
			r, err := cohSimulate(e, keys[i], build)
			if err != nil {
				return err
			}
			runs[i] = r
		}
		return nil
	}
	for range min(runtime.GOMAXPROCS(0), len(groups)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(groups) {
					return
				}
				if err := run(groups[i]); err != nil {
					once.Do(func() { first = err })
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	if first != nil {
		return nil, first
	}
	byKey := make(map[cohKey]cohRun, len(keys))
	for i, k := range keys {
		byKey[k] = runs[i]
	}
	return byKey, nil
}

// cohSweepChart renders one metric of the sharing-degree sweep (MSI
// snooping) as a chart in the paper's per-benchmark + average style.
func cohSweepChart(e *Env, id, title, ylabel string, metric func(cohRun) float64) (Result, error) {
	var keys []cohKey
	for _, p := range cache.WriteMissPolicies() {
		for ti := range e.Traces {
			for _, cores := range cohDegrees {
				keys = append(keys, cohKey{ti: ti, p: p, scheme: coherence.Invalidate, cores: cores})
			}
		}
	}
	runs, err := cohRunAll(e, keys)
	if err != nil {
		return Result{}, err
	}
	chart := &stats.Chart{ID: id, Title: title,
		XLabel: "sharing degree (cores)", YLabel: ylabel, XScale: stats.Log2}
	for _, p := range cache.WriteMissPolicies() {
		err := benchSeries(e, chart, "/"+p.String(), "average/"+p.String(), cohDegrees, func(ti, cores int) (float64, error) {
			return metric(runs[cohKey{ti: ti, p: p, scheme: coherence.Invalidate, cores: cores}]), nil
		})
		if err != nil {
			return Result{}, err
		}
	}
	return Result{Chart: chart}, nil
}

// extCohMiss: aggregate L1 miss rate vs sharing degree. Sharing misses
// (lines lost to remote writes) push every policy's miss rate up with
// degree; the no-allocate policies additionally forgo the prefetch
// effect of fetch-on-write on shared granules.
func extCohMiss(e *Env) (Result, error) {
	return cohSweepChart(e, "ext-coh-miss",
		"BEYOND THE PAPER: multi-core miss rate vs sharing degree (8KB/16B private L1s, MSI snooping, 64KB shared L2, 25% shared granules)",
		"aggregate L1 miss rate (%)",
		func(r cohRun) float64 { return stats.Pct(r.l1.MissRate()) })
}

// extCohTraffic: L1-side bus bytes (fills, write-backs and coherence
// flushes, plus update broadcasts — zero under MSI) per 1000
// references vs sharing degree — the multi-core version of the paper's
// back-side traffic question.
func extCohTraffic(e *Env) (Result, error) {
	return cohSweepChart(e, "ext-coh-traffic",
		"BEYOND THE PAPER: L1-side bus traffic vs sharing degree (8KB/16B private L1s, MSI snooping, 64KB shared L2, 25% shared granules)",
		"bus bytes per 1000 references",
		func(r cohRun) float64 {
			if refs := r.l1.Refs(); refs > 0 {
				return float64(r.sys.BusBytes()) / float64(refs) * 1000
			}
			return 0
		})
}

// extCohSchemes compares the three coherence schemes at 4 cores (plus
// a no-coherence baseline: the same trace.Merge reference schedule
// through a 1-core System, i.e. one shared L1) under the standard
// write-back fetch-on-write policy.
func extCohSchemes(e *Env) (Result, error) {
	tbl := &stats.Table{ID: "ext-coh-schemes",
		Title: "Coherence schemes at 4 cores (8KB/16B WB+FOW private L1s, 64KB/64B shared L2, 25% shared granules; per 1000 references)",
		Columns: []string{"benchmark", "scheme", "miss rate", "sharing misses/1k",
			"invalidations/1k", "updates/1k", "bus bytes/1k"},
	}
	const cores = 4
	var keys []cohKey
	for ti := range e.Traces {
		for _, scheme := range coherence.Schemes() {
			keys = append(keys, cohKey{ti: ti, p: cache.FetchOnWrite, scheme: scheme, cores: cores})
		}
		keys = append(keys, cohKey{ti: ti, p: cache.FetchOnWrite, cores: cores, shared: true})
	}
	runs, err := cohRunAll(e, keys)
	if err != nil {
		return Result{}, err
	}
	for _, k := range keys {
		r := runs[k]
		name := e.Traces[k.ti].Name
		per1k := float64(r.l1.Refs()) / 1000
		if k.shared {
			// Baseline: the identical reference schedule through one
			// shared cache — what coherence overhead is measured against.
			tbl.AddRow(name, "shared-L1 (no coherence)",
				stats.FmtPct(r.l1.MissRate()), "-", "-", "-",
				fmt.Sprintf("%.1f", float64(r.sys.L1ToL2Bytes)/per1k))
			continue
		}
		tbl.AddRow(name, k.scheme.String(),
			stats.FmtPct(r.l1.MissRate()),
			fmt.Sprintf("%.2f", float64(r.sys.SharingMisses)/per1k),
			fmt.Sprintf("%.2f", float64(r.sys.InvalidationsReceived+r.sys.HybridInvalidations)/per1k),
			fmt.Sprintf("%.2f", float64(r.sys.UpdatesReceived)/per1k),
			fmt.Sprintf("%.1f", float64(r.sys.BusBytes())/per1k))
	}
	return Result{Table: tbl}, nil
}
