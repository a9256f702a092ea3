package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cachewrite/internal/cache"
	"cachewrite/internal/coherence"
	"cachewrite/internal/hierarchy"
	"cachewrite/internal/pipeline"
	"cachewrite/internal/resilience"
	"cachewrite/internal/reuse"
	"cachewrite/internal/sweep"
	"cachewrite/internal/timing"
	"cachewrite/internal/trace"
	"cachewrite/internal/vfs"
	"cachewrite/internal/workload"
	"cachewrite/internal/writebuffer"
	"cachewrite/internal/writecache"
)

// layerInputs are one workload's own inputs, replayed through each
// layer's public entry point in the traced run.
type layerInputs struct {
	names    []string       // benchmark traces the workload loads
	traces   []*trace.Trace // what the workload simulates, one per name
	grids    []grid         // gang sweeps the workload runs
	cacheDir string         // warm trace cache
	work     string         // scratch space inside the build directory
	journal  []byte         // the workload's durable state, as JSON
}

// grid is one gang sweep: a trace and its configuration grid.
type grid struct {
	key   string
	trace *trace.Trace
	cfgs  []cache.Config
}

// Configurations the replays use, taken from the experiments that
// exercise each layer.
var (
	stdL1 = cache.Config{Size: 8 << 10, LineSize: 16, Assoc: 1,
		WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite}
	// sharedL2 is the ext-l2policy and ext-coh-* second level.
	sharedL2 = cache.Config{Size: 64 << 10, LineSize: 64, Assoc: 4,
		WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite}
	// subBlockL1 selects the generic kernel (4-byte valid granules).
	subBlockL1 = cache.Config{Size: 8 << 10, LineSize: 16, Assoc: 1,
		WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite, ValidGranularity: 4}
)

// cohDegrees and the constants below mirror the ext-coh-* experiments.
var cohDegrees = []int{1, 2, 4, 8}

const (
	cohShared    = 0.25
	cohStagger   = 2500
	cohMaxEvents = 100_000
	batchWindow  = 8192 // the gang's pulse window
	saveReps     = 5
)

// perLayer lists the per-layer metrics every traced run reports, in
// output order, with the unit, the direction that is better, and the
// end-to-end metric each should move on which workload.
var perLayer = []struct{ name, unit, better, moves string }{
	{"workload.load_s", "s", "lower", "setup_s, all workloads"},
	{"workload.generate_s", "s", "lower", "setup_s, all workloads (first run in a checkout)"},
	{"workload.cache_hits", "count", "higher", "setup_s, all workloads"},
	{"workload.cache_misses", "count", "lower", "setup_s, all workloads"},
	{"trace.decode_ns_per_event", "ns", "lower", "setup_s, all workloads"},
	{"sweep.gang_ns_per_config_event", "ns", "lower", "wall_s on figures; a little jobs_per_s on serve"},
	{"cache.decode_ns_per_event", "ns", "lower", "wall_s on figures"},
	{"cache.batch_dm_ns_per_event", "ns", "lower", "wall_s on figures"},
	{"cache.batch_sa_ns_per_event", "ns", "lower", "wall_s on figures"},
	{"cache.batch_generic_ns_per_event", "ns", "lower", "wall_s on figures"},
	{"cache.access_ns_per_event", "ns", "lower", "wall_s on coherence and figures"},
	{"writebuffer.ns_per_event", "ns", "lower", "wall_s on figures"},
	{"writecache.ns_per_event", "ns", "lower", "wall_s on figures"},
	{"hierarchy.ns_per_event", "ns", "lower", "wall_s on figures"},
	{"timing.ns_per_event", "ns", "lower", "wall_s on figures"},
	{"pipeline.ns_per_event", "ns", "lower", "wall_s on figures"},
	{"reuse.ns_per_event", "ns", "lower", "wall_s on figures"},
	{"trace.compact_ns_per_event", "ns", "lower", "wall_s, peak_rss_mb on coherence"},
	{"coherence.build_ns_per_event", "ns", "lower", "wall_s, peak_rss_mb on coherence"},
	{"coherence.inv_c1_ns_per_access", "ns", "lower", "wall_s, peak_rss_mb on coherence"},
	{"coherence.inv_c2_ns_per_access", "ns", "lower", "wall_s, peak_rss_mb on coherence"},
	{"coherence.inv_c4_ns_per_access", "ns", "lower", "wall_s, peak_rss_mb on coherence"},
	{"coherence.inv_c8_ns_per_access", "ns", "lower", "wall_s, peak_rss_mb on coherence"},
	{"coherence.update_c4_ns_per_access", "ns", "lower", "wall_s, peak_rss_mb on coherence"},
	{"coherence.hybrid_c4_ns_per_access", "ns", "lower", "wall_s, peak_rss_mb on coherence"},
	{"coherence.remote_copy_ratio", "ratio", "higher", "wall_s on coherence"},
	{"resilience.save_mem_ms", "ms", "lower", "latency_*, jobs_per_s on serve"},
	{"resilience.save_os_ms", "ms", "lower", "latency_*, jobs_per_s on serve"},
	{"resilience.save_bytes", "B", "lower", "latency_*, jobs_per_s on serve"},
}

// replayer times one layer call at a time under a "layers" root span.
type replayer struct {
	tr   *tracer
	root int
	vals map[string]float64
}

// timed runs fn inside a span called name and returns its seconds.
func (r *replayer) timed(name string, events, bytes int64, fn func() error) (float64, error) {
	sp := r.tr.begin(name, r.root, "")
	start := time.Now()
	err := fn()
	d := time.Since(start).Seconds()
	r.tr.end(sp, events, bytes)
	if err != nil {
		return d, fmt.Errorf("%s: %w", name, err)
	}
	return d, nil
}

// perEvent records metric = ns per event over the summed spans.
func (r *replayer) perEvent(metric string, seconds float64, events int64) {
	if events > 0 {
		r.vals[metric] = seconds * 1e9 / float64(events)
	}
}

// replayLayers runs every layer replay over in and returns the
// per-layer metric values by name.
func replayLayers(ctx context.Context, in layerInputs, tr *tracer) (map[string]float64, error) {
	r := &replayer{tr: tr, root: tr.begin("layers", -1, ""), vals: map[string]float64{}}
	defer tr.end(r.root, 0, 0)
	steps := []func(layerInputs) error{
		r.workloadLayer, r.sweepLayer, r.cacheLayer, r.backsideLayers,
		r.coherenceLayer, r.resilienceLayer,
	}
	for _, step := range steps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := step(in); err != nil {
			return nil, err
		}
	}
	hits := workload.CacheStatsSnapshot()
	r.vals["workload.cache_hits"] = float64(hits.Hits)
	r.vals["workload.cache_misses"] = float64(hits.Misses)
	return r.vals, nil
}

// workloadLayer times trace loads from the warm cache, generation into
// a cold cache directory, and the CWT1 decode alone.
func (r *replayer) workloadLayer(in layerInputs) error {
	cold, err := os.MkdirTemp(in.work, "cold-cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(cold)
	var load, gen, dec float64
	var decEvents int64
	for _, name := range in.names {
		var t *trace.Trace
		d, err := r.timed("workload.load", 0, 0, func() (err error) {
			t, err = workload.GenerateCached(in.cacheDir, name, 1)
			return err
		})
		if err != nil {
			return err
		}
		load += d
		d, err = r.timed("workload.generate", int64(t.Len()), 0, func() error {
			_, err := workload.GenerateCached(cold, name, 1)
			return err
		})
		if err != nil {
			return err
		}
		gen += d
		data, err := os.ReadFile(workload.CachePath(in.cacheDir, name, 1))
		if err != nil {
			return err
		}
		d, err = r.timed("trace.decode", int64(t.Len()), int64(len(data)), func() error {
			_, err := trace.ReadBinary(bytes.NewReader(data))
			return err
		})
		if err != nil {
			return err
		}
		dec += d
		decEvents += int64(t.Len())
	}
	r.vals["workload.load_s"] = load
	r.vals["workload.generate_s"] = gen
	r.perEvent("trace.decode_ns_per_event", dec, decEvents)
	return nil
}

// sweepLayer replays the workload's gang sweeps single-threaded.
func (r *replayer) sweepLayer(in layerInputs) error {
	var secs float64
	var cfgEvents int64
	for _, g := range in.grids {
		n := int64(g.trace.Len()) * int64(len(g.cfgs))
		d, err := r.timed("sweep.gang", n, 0, func() error {
			_, err := sweep.Gang(g.trace, g.cfgs)
			return err
		})
		if err != nil {
			return err
		}
		secs += d
		cfgEvents += n
	}
	r.perEvent("sweep.gang_ns_per_config_event", secs, cfgEvents)
	return nil
}

// cacheLayer times window pre-decode, each batch kernel class on
// pre-decoded windows, and the generic per-event Access path.
func (r *replayer) cacheLayer(in layerInputs) error {
	events := traceEvents(in.traces)
	kernels := []struct {
		metric string
		cfg    cache.Config
	}{
		{"cache.batch_dm_ns_per_event", stdL1},
		{"cache.batch_sa_ns_per_event", sharedL2},
		{"cache.batch_generic_ns_per_event", subBlockL1},
	}
	dec := make([]cache.Decoded, batchWindow)
	for ki, k := range kernels {
		var decodeNs, accessNs time.Duration
		sp := r.tr.begin("cache.batch", r.root, "")
		for _, t := range in.traces {
			c, err := cache.New(k.cfg)
			if err != nil {
				return err
			}
			for lo := 0; lo < t.Len(); lo += batchWindow {
				window := t.Events[lo:min(lo+batchWindow, t.Len())]
				t0 := time.Now()
				c.DecodeBatch(window, dec)
				t1 := time.Now()
				c.AccessBatch(window, dec)
				accessNs += time.Since(t1)
				decodeNs += t1.Sub(t0)
			}
		}
		r.tr.end(sp, events, 0)
		r.perEvent(k.metric, accessNs.Seconds(), events)
		if ki == 0 {
			r.perEvent("cache.decode_ns_per_event", decodeNs.Seconds(), events)
		}
	}
	d, err := r.timed("cache.access", events, 0, func() error {
		for _, t := range in.traces {
			c, err := cache.New(stdL1)
			if err != nil {
				return err
			}
			c.AccessTrace(t)
			c.Flush()
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.perEvent("cache.access_ns_per_event", d, events)
	return nil
}

// backsideLayers replays the structures behind the L1, each on the
// configuration of the figure that uses it: the fig5 write buffer, the
// fig5 write cache, the ext-l2policy L2, the ext-perf timing model,
// the ext-cpi store pipeline and the ext-reuse profiler.
func (r *replayer) backsideLayers(in layerInputs) error {
	events := traceEvents(in.traces)
	wt := stdL1
	wt.WriteHit = cache.WriteThrough
	steps := []struct {
		metric, span string
		run          func(t *trace.Trace) error
	}{
		{"writebuffer.ns_per_event", "writebuffer.run", func(t *trace.Trace) error {
			b, err := writebuffer.New(writebuffer.Config{Entries: 8, LineSize: 16, RetireInterval: 8})
			if err == nil {
				b.Run(t)
			}
			return err
		}},
		{"writecache.ns_per_event", "writecache.run", func(t *trace.Trace) error {
			c, err := writecache.New(writecache.Config{Entries: 6, LineSize: 16})
			if err == nil {
				c.Run(t)
			}
			return err
		}},
		{"hierarchy.ns_per_event", "hierarchy.access", func(t *trace.Trace) error {
			l2 := sharedL2
			h, err := hierarchy.New(hierarchy.Config{L1: stdL1, L2: &l2})
			if err == nil {
				h.AccessTrace(t)
				h.Flush()
			}
			return err
		}},
		{"timing.ns_per_event", "timing.evaluate", func(t *trace.Trace) error {
			_, err := timing.Evaluate(timing.Config{L1: stdL1, FetchLatency: 10, WriteBufferEntries: 4,
				WriteRetire: 6, VictimBufferEntries: 1, WritebackCycles: 6}, t)
			return err
		}},
		{"pipeline.ns_per_event", "pipeline.evaluate", func(t *trace.Trace) error {
			_, err := pipeline.Evaluate(pipeline.Config{Org: pipeline.DirectMappedWriteThrough, Cache: wt,
				MissPenalty: 10, WriteBuffer: &writebuffer.Config{Entries: 8, LineSize: 16, RetireInterval: 8}}, t)
			return err
		}},
		{"reuse.ns_per_event", "reuse.analyze", func(t *trace.Trace) error {
			_, err := reuse.Analyze(t, 16)
			return err
		}},
	}
	for _, s := range steps {
		d, err := r.timed(s.span, events, 0, func() error {
			for _, t := range in.traces {
				if err := s.run(t); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		r.perEvent(s.metric, d, events)
	}
	return nil
}

// coherenceLayer replays the ext-coh-* pipeline: region compaction,
// multi-core workload construction, and the snooping system under each
// scheme at the sharing degrees the experiments use.
func (r *replayer) coherenceLayer(in layerInputs) error {
	type run struct {
		metric string
		scheme coherence.Scheme
		cores  int
	}
	runs := []run{
		{"coherence.inv_c1_ns_per_access", coherence.Invalidate, 1},
		{"coherence.inv_c2_ns_per_access", coherence.Invalidate, 2},
		{"coherence.inv_c4_ns_per_access", coherence.Invalidate, 4},
		{"coherence.inv_c8_ns_per_access", coherence.Invalidate, 8},
		{"coherence.update_c4_ns_per_access", coherence.Update, 4},
		{"coherence.hybrid_c4_ns_per_access", coherence.Hybrid, 4},
	}
	secs := map[string]float64{}
	accesses := map[string]int64{}
	var compactS, buildS float64
	var compactEv, buildEv int64
	var remote, probes float64
	for _, t := range in.traces {
		var dense *trace.Trace
		d, err := r.timed("trace.compact", int64(t.Len()), 0, func() (err error) {
			dense, err = trace.CompactRegions(t, 24)
			return err
		})
		if err != nil {
			return err
		}
		compactS += d
		compactEv += int64(t.Len())
		built := map[int]*coherence.Workload{}
		for _, cores := range cohDegrees {
			var w *coherence.Workload
			d, err := r.timed("coherence.build", 0, 0, func() (err error) {
				w, err = coherence.BuildWorkload(dense, coherence.WorkloadConfig{Cores: cores,
					SharedFraction: cohShared, Stagger: cohStagger, MaxEventsPerCore: cohMaxEvents})
				return err
			})
			if err != nil {
				return err
			}
			built[cores] = w
			buildS += d
			buildEv += workloadEvents(w)
		}
		for _, rn := range runs {
			w := built[rn.cores]
			n := workloadEvents(w)
			var st coherence.Stats
			l2 := sharedL2
			d, err := r.timed("coherence.run", n, 0, func() error {
				sys, err := coherence.New(coherence.Config{Cores: rn.cores, L1: stdL1, L2: &l2, Scheme: rn.scheme})
				if err != nil {
					return err
				}
				if err := sys.Run(w); err != nil {
					return err
				}
				sys.Flush()
				st = sys.Stats()
				return nil
			})
			if err != nil {
				return err
			}
			secs[rn.metric] += d
			accesses[rn.metric] += n
			if rn.cores > 1 {
				remote += float64(st.InvalidationsReceived + st.UpdatesReceived + st.Interventions)
				probes += float64(n) * float64(rn.cores-1)
			}
		}
	}
	r.perEvent("trace.compact_ns_per_event", compactS, compactEv)
	r.perEvent("coherence.build_ns_per_event", buildS, buildEv)
	for _, rn := range runs {
		r.perEvent(rn.metric, secs[rn.metric], accesses[rn.metric])
	}
	if probes > 0 {
		r.vals["coherence.remote_copy_ratio"] = remote / probes
	}
	return nil
}

// workloadEvents is the total number of accesses across w's cores.
func workloadEvents(w *coherence.Workload) int64 {
	var n int64
	for _, t := range w.PerCore {
		n += int64(t.Len())
	}
	return n
}

// resilienceLayer commits the workload's durable state through
// resilience.Journal on the in-memory and the real filesystem.
func (r *replayer) resilienceLayer(in layerInputs) error {
	payload := json.RawMessage(in.journal)
	dir, err := os.MkdirTemp(in.work, "journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	targets := []struct {
		metric string
		fs     vfs.FS
		path   string
	}{
		{"resilience.save_mem_ms", vfs.NewMem(), "/bench/state.journal"},
		{"resilience.save_os_ms", vfs.OS{}, filepath.Join(dir, "state.journal")},
	}
	for _, tg := range targets {
		j := resilience.NewJournalFS[json.RawMessage](tg.fs, tg.path, "perfbench", 1)
		var ms []float64
		for i := 0; i < saveReps; i++ {
			d, err := r.timed("resilience.save", 0, int64(len(payload)), func() error { return j.Save(payload) })
			if err != nil {
				return err
			}
			ms = append(ms, d*1e3)
		}
		r.vals[tg.metric] = median(ms)
	}
	r.vals["resilience.save_bytes"] = float64(len(payload))
	return nil
}
