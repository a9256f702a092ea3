package experiments

import (
	"fmt"

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

// cohWorkload builds the N-core workload for a benchmark. The paper
// traces have sparse footprints (yacc touches superblocks near 0x0,
// 0x10000000 and 0x7f000000, spanning 2GB), so no window stride could
// keep their raw images disjoint; compacting occupied 16MB superblocks
// first (cache index/offset bits untouched) shrinks every footprint
// below 64MB and the default 128MB stride fits all degrees.
func cohWorkload(t *trace.Trace, cores int) (*coherence.Workload, error) {
	dense, err := trace.CompactRegions(t, 24)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", t.Name, err)
	}
	w, err := coherence.BuildWorkload(dense, coherence.WorkloadConfig{
		Cores:            cores,
		SharedFraction:   cohSharedFraction,
		Stagger:          cohStagger,
		MaxEventsPerCore: cohMaxEvents,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: %s x%d: %w", t.Name, cores, err)
	}
	return w, nil
}

// cohKey identifies one memoized coherent simulation.
type cohKey struct {
	ti     int
	p      cache.WriteMissPolicy
	scheme coherence.Scheme
	cores  int
}

// cohSimulate replays trace ti across the given sharing degree under
// one coherence scheme and write-miss policy, memoized: ext-coh-miss
// and ext-coh-traffic read two metrics off one sweep, and
// ext-coh-schemes shares its 4-core MSI runs with them. Only the small
// result is kept, never the built per-core workload.
func cohSimulate(e *Env, ti int, p cache.WriteMissPolicy, scheme coherence.Scheme, cores int) (cohRun, error) {
	return memoize(e, cohKey{ti, p, scheme, cores}, func() (cohRun, error) {
		t := e.Traces[ti]
		w, err := cohWorkload(t, cores)
		if err != nil {
			return cohRun{}, err
		}
		l2 := cohL2()
		sys, err := coherence.New(coherence.Config{Cores: cores,
			L1: policyConfig(StdCacheSize, StdLineSize, p), L2: &l2, Scheme: scheme})
		if err != nil {
			return cohRun{}, fmt.Errorf("experiments: %s x%d: %w", t.Name, cores, err)
		}
		if err := sys.Run(w); err != nil {
			return cohRun{}, err
		}
		sys.Flush()
		return cohRun{l1: sys.AggregateL1(), sys: sys.Stats()}, nil
	})
}

// cohSweepChart renders one metric of the sharing-degree sweep (MSI
// snooping) as a chart in the paper's per-benchmark + average style.
func cohSweepChart(e *Env, id, title, ylabel string, metric func(cohRun) float64) (Result, error) {
	chart := &stats.Chart{ID: id, Title: title,
		XLabel: "sharing degree (cores)", YLabel: ylabel, XScale: stats.Log2}
	for _, p := range cache.WriteMissPolicies() {
		err := benchSeries(e, chart, "/"+p.String(), "average/"+p.String(), cohDegrees, func(ti, cores int) (float64, error) {
			r, err := cohSimulate(e, ti, p, coherence.Invalidate, cores)
			return metric(r), err
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
	for ti, t := range e.Traces {
		for _, scheme := range coherence.Schemes() {
			r, err := cohSimulate(e, ti, cache.FetchOnWrite, scheme, cores)
			if err != nil {
				return Result{}, err
			}
			k := float64(r.l1.Refs()) / 1000
			tbl.AddRow(t.Name, scheme.String(),
				stats.FmtPct(r.l1.MissRate()),
				fmt.Sprintf("%.2f", float64(r.sys.SharingMisses)/k),
				fmt.Sprintf("%.2f", float64(r.sys.InvalidationsReceived+r.sys.HybridInvalidations)/k),
				fmt.Sprintf("%.2f", float64(r.sys.UpdatesReceived)/k),
				fmt.Sprintf("%.1f", float64(r.sys.BusBytes())/k))
		}
		// Baseline: the identical reference schedule through one
		// shared cache — what coherence overhead is measured against.
		w, err := cohWorkload(t, cores)
		if err != nil {
			return Result{}, err
		}
		l2 := cohL2()
		base, err := coherence.New(coherence.Config{Cores: 1, L1: stdConfig(StdCacheSize, StdLineSize), L2: &l2})
		if err != nil {
			return Result{}, err
		}
		trace.Merge(w.Offsets, w.PerCore, func(_ int, e trace.Event, _ uint64) { base.Access(0, e) })
		base.Flush()
		ls, bs := base.L1(0).Stats(), base.Stats()
		k := float64(ls.Refs()) / 1000
		tbl.AddRow(t.Name, "shared-L1 (no coherence)",
			stats.FmtPct(ls.MissRate()), "-", "-", "-",
			fmt.Sprintf("%.1f", float64(bs.L1ToL2Bytes)/k))
	}
	return Result{Table: tbl}, nil
}
