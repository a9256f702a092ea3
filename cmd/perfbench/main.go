// Command perfbench is the repository's end-to-end benchmark. It runs
// one of three workloads in-process through the layers' public Go
// functions, checks every output against a golden, and prints the
// metrics a user of the simulator waits for:
//
//	perfbench --workload figures --seed 1 --seconds 30 --trace 0
//
// Workloads: figures (every paper figure and table plus the
// non-coherence extensions, as paperfigs -all regenerates them),
// coherence (the ext-coh-* experiments) and serve (a closed loop of
// simserved jobs against an in-process serve.Server).
//
// With --trace 1 the same passes run with a span recorded around each
// call into a layer, followed by a replay of the workload's inputs
// through each layer's entry point; the per-layer metrics come from
// those spans. --trace 0 records no spans.
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The exit code is 0
// when every output matched its golden, 1 when any did not (the
// result is still printed), and 2 when the run could not be set up
// (no result is printed). README.md describes the metrics.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"cachewrite/internal/experiments"
	"cachewrite/internal/serve"
	"cachewrite/internal/trace"
	"cachewrite/internal/workload"
)

// endToEnd lists the metrics every untraced run reports, in output
// order. README.md gives each one's meaning per workload. The serve
// workload also reports jobs_per_s and the job latencies, as extras.
var endToEnd = []struct{ name, unit, better string }{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// setupRuns is how many times a run sets up; setup_s is the median.
// The first set-up in a fresh checkout also fills the trace cache, and
// the median keeps that one-off cost out of the figure.
const setupRuns = 9

// runLimit bounds one run, set-up and layer replays included.
const runLimit = 170 * time.Second

// metric is one named value with its unit.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Note  string  `json:"note,omitempty"`
}

// result is everything one run measured. It is printed, and appended
// to the results log so later runs can be compared with it.
type result struct {
	Time      string    `json:"time"`
	Host      Host      `json:"host"`
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Traced    bool      `json:"traced"`
	Passes    int       `json:"passes"`
	PassWalls []float64 `json:"pass_walls_s"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Failures  []string  `json:"failures,omitempty"`
	EndToEnd  []metric  `json:"end_to_end"`
	Layers    []metric  `json:"per_layer,omitempty"`
	Extra     []metric  `json:"extra,omitempty"`
}

// get returns the value of the metric called name, if present.
func get(ms []metric, name string) (float64, bool) {
	for _, m := range ms {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// lookup returns the value of the metric called name among r's
// end-to-end metrics and extras, if present.
func (r *result) lookup(name string) (float64, bool) {
	if v, ok := get(r.EndToEnd, name); ok {
		return v, true
	}
	return get(r.Extra, name)
}

// options are the command-line settings.
type options struct {
	workload     string
	seed         int64
	seconds      int
	trace        int
	out          string
	writeGoldens string
	report       bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process-global parts; it returns the exit
// code.
func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: figures, coherence or serve")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the order of the experiments, or the serve job specs")
	fs.IntVar(&o.seconds, "seconds", 30, "measuring budget: passes repeat while the next one is expected to fit (at least one)")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run reporting per-layer metrics, 0 = untraced run reporting end-to-end metrics")
	fs.StringVar(&o.out, "out", defaultOut(), "build directory for the trace cache, scratch state, spans and the results log")
	fs.StringVar(&o.writeGoldens, "write-goldens", "", "regenerate every experiment's golden render into this directory and exit")
	fs.BoolVar(&o.report, "report", false, "print the median and quartile spread of the logged untraced runs from this host and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	base := filepath.Join(o.out, "perfbench")
	if o.report {
		if err := report(stdout, filepath.Join(base, "results.jsonl")); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		return 0
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// A run that has not finished by now is broken; give up before a
	// caller's 180-second limit instead of hanging.
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	defer cancel()

	cacheDir := filepath.Join(base, "tracecache")
	work := filepath.Join(base, "work")
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if o.writeGoldens != "" {
		if err := regenerateGoldens(ctx, cacheDir, o.writeGoldens); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		return 0
	}
	var tr *tracer
	if o.trace == 1 {
		tr = newTracer()
	}
	budget := time.Duration(o.seconds) * time.Second
	var res *result
	var in layerInputs
	var err error
	switch o.workload {
	case "figures", "coherence":
		res, in, err = runExperiments(ctx, o.workload, o.seed, budget, cacheDir, tr)
	case "serve":
		res, in, err = runServe(ctx, o.seed, budget, cacheDir, work, tr)
	default:
		fmt.Fprintf(stderr, "perfbench: unknown --workload %q (want figures, coherence or serve)\n", o.workload)
		return 2
	}
	if err == nil && tr != nil {
		in.cacheDir, in.work = cacheDir, work
		err = addLayerMetrics(ctx, res, in, tr, filepath.Join(base, "results.jsonl"))
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res.Time = time.Now().UTC().Format(time.RFC3339)
	res.Host = currentHost()
	res.Seed = o.seed
	res.Traced = tr != nil
	if tr != nil {
		if err := writeJSON(filepath.Join(base, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed)), tr.snapshot()); err != nil {
			fmt.Fprintln(stderr, "perfbench: spans:", err)
		}
	}
	if err := appendLog(filepath.Join(base, "results.jsonl"), res); err != nil {
		fmt.Fprintln(stderr, "perfbench: results log:", err)
	}
	if err := printResult(stdout, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// defaultOut is the build directory: $CARGO_TARGET_DIR when the
// caller sets one, else .bench_build.
func defaultOut() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// loadTraces is one set-up: the six paper traces from the warm trace
// cache, through the entry point paperfigs uses.
func loadTraces(cacheDir string) ([]*trace.Trace, float64, error) {
	start := time.Now()
	env, err := experiments.NewEnvCached(1, cacheDir)
	if err != nil {
		return nil, 0, err
	}
	return env.Traces, time.Since(start).Seconds(), nil
}

// runExperiments measures the figures or coherence workload.
func runExperiments(ctx context.Context, name string, seed int64, budget time.Duration, cacheDir string, tr *tracer) (*result, layerInputs, error) {
	var traces []*trace.Trace
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		traces = nil
		runtime.GC()
		ts, d, err := loadTraces(cacheDir)
		if err != nil {
			return nil, layerInputs{}, err
		}
		traces, setups = ts, append(setups, d)
	}
	fmt.Fprintf(os.Stderr, "perfbench: set-up done, peak RSS %.1f MB\n", peakRSSMB())
	coh := name == "coherence"
	ids := seededOrder(experimentIDs(coh), seed)
	res := &result{Workload: name}
	var walls []float64
	var last expPass
	start := time.Now()
	for {
		// Each pass starts from the same heap: the previous pass's
		// garbage is collected outside the timed region.
		runtime.GC()
		p := runExpPass(ctx, traces, ids, !coh, true, tr)
		res.Passes++
		res.Attempted += p.attempted
		res.Failed += p.failed
		res.Failures = append(res.Failures, p.failures...)
		walls = append(walls, p.wall)
		last = p
		fmt.Fprintf(os.Stderr, "perfbench: pass %d: %.3fs, peak RSS %.1f MB\n", res.Passes, p.wall, peakRSSMB())
		if ctx.Err() != nil || time.Since(start)+time.Duration(p.wall*float64(time.Second)) > budget {
			break
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, layerInputs{}, err
	}
	res.PassWalls = walls
	res.EndToEnd = endToEndMetrics(walls, setups)
	res.Extra = append(res.Extra,
		failFrac(res),
		metric{Name: "experiments.computes", Unit: "count", Value: float64(last.computes), Note: "memo misses in the last pass"})
	if tr != nil {
		res.Extra = append(res.Extra, passSpanMetrics(tr.snapshot(), res.Passes, ids, name)...)
	}
	journal, err := json.Marshal(last.results)
	if err != nil {
		return nil, layerInputs{}, err
	}
	in := layerInputs{names: workload.PaperOrder(), traces: traces, journal: journal}
	for _, t := range traces {
		in.grids = append(in.grids, grid{key: t.Name, trace: t, cfgs: experiments.SweepConfigs()})
	}
	return res, in, nil
}

// runServe measures the serve workload.
func runServe(ctx context.Context, seed int64, budget time.Duration, cacheDir, work string, tr *tracer) (*result, layerInputs, error) {
	specs := serveSpecs(seed)
	in, goldens, err := serveInputs(specs, cacheDir)
	if err != nil {
		return nil, layerInputs{}, err
	}
	var setups []float64
	var sess *serveSession
	for i := 0; i < setupRuns; i++ {
		if sess != nil {
			if err := sess.stop(); err != nil {
				return nil, layerInputs{}, err
			}
			runtime.GC()
		}
		s, d, err := startServer(ctx, work, cacheDir)
		if err != nil {
			return nil, layerInputs{}, err
		}
		sess, setups = s, append(setups, d)
	}
	res := &result{Workload: "serve"}
	var walls []float64
	var samples []jobSample
	var last servePass
	start := time.Now()
	for {
		p := runServePass(ctx, sess, specs, goldens, tr)
		if err := sess.stop(); err != nil {
			return nil, layerInputs{}, err
		}
		res.Passes++
		res.Attempted += p.attempted
		res.Failed += p.failed
		res.Failures = append(res.Failures, p.failures...)
		walls = append(walls, p.wall)
		samples = append(samples, p.samples...)
		last = p
		fmt.Fprintf(os.Stderr, "perfbench: pass %d: %.3fs, peak RSS %.1f MB\n", res.Passes, p.wall, peakRSSMB())
		next := time.Duration((p.wall + setups[len(setups)-1]) * float64(time.Second))
		if ctx.Err() != nil || time.Since(start)+next > budget {
			break
		}
		runtime.GC()
		s, d, err := startServer(ctx, work, cacheDir)
		if err != nil {
			return nil, layerInputs{}, err
		}
		sess, setups = s, append(setups, d)
	}
	if err := ctx.Err(); err != nil {
		return nil, layerInputs{}, err
	}
	res.PassWalls = walls
	lat := make([]float64, len(samples))
	for i, s := range samples {
		lat[i] = s.latency * 1e3
	}
	res.EndToEnd = endToEndMetrics(walls, setups)
	res.EndToEnd[0].Note = fmt.Sprintf("one closed-loop batch of %d jobs", serveJobs)
	t := tailOf(lat)
	res.Extra = append(res.Extra,
		metric{Name: "jobs_per_s", Unit: "1/s", Value: float64(len(samples)) / sum(walls), Note: "jobs verified per second"},
		metric{Name: "latency_p50_ms", Unit: "ms", Value: median(lat), Note: "submit to terminal state"},
		metric{Name: "latency_tail_ms", Unit: "ms", Value: t.Value, Note: t.String()},
		failFrac(res))
	res.Extra = append(res.Extra, serveLayerMetrics(samples, last)...)
	if _, payload, ok := strings.Cut(string(last.journal), "\n"); ok {
		in.journal = []byte(payload)
	}
	return res, in, nil
}

// serveInputs loads the traces the specs name, computes the golden rows
// of every distinct spec, and returns the job inputs (trace prefixes
// and grids) for the layer replays. Its time is not part of setup_s.
func serveInputs(specs [][]serve.JobSpec, cacheDir string) (layerInputs, map[string][]byte, error) {
	used := map[string]bool{}
	for _, client := range specs {
		for _, s := range client {
			used[s.Workloads[0]] = true
		}
	}
	var in layerInputs
	prefixes := map[string]*trace.Trace{}
	for _, name := range workload.PaperOrder() {
		if !used[name] {
			continue
		}
		t, err := workload.GenerateCached(cacheDir, name, 1)
		if err != nil {
			return in, nil, err
		}
		// Copy the prefix so the full trace is not kept alive: the
		// server holds its own decoded copy.
		p := &trace.Trace{Name: t.Name, Events: append([]trace.Event(nil), t.Events[:min(serveEvents, t.Len())]...)}
		prefixes[name] = p
		in.names = append(in.names, name)
		in.traces = append(in.traces, p)
	}
	grids, err := specGrids(specs, prefixes)
	if err != nil {
		return in, nil, err
	}
	goldens, err := goldenRows(grids)
	if err != nil {
		return in, nil, err
	}
	in.grids = grids
	runtime.GC()
	return in, goldens, nil
}

// endToEndMetrics assembles the end-to-end metrics in endToEnd order.
func endToEndMetrics(walls, setups []float64) []metric {
	vals := []float64{median(walls), median(setups), peakRSSMB()}
	ms := make([]metric, len(endToEnd))
	for i, e := range endToEnd {
		ms[i] = metric{Name: e.name, Unit: e.unit, Value: vals[i]}
	}
	ms[0].Note = fmt.Sprintf("median of %d pass(es)", len(walls))
	ms[1].Note = fmt.Sprintf("median of %d set-ups", len(setups))
	return ms
}

// failFrac is failed operations over attempted ones.
func failFrac(res *result) metric {
	v := 0.0
	if res.Attempted > 0 {
		v = float64(res.Failed) / float64(res.Attempted)
	}
	return metric{Name: "fail_frac", Unit: "ratio", Value: v, Note: fmt.Sprintf("%d of %d failed", res.Failed, res.Attempted)}
}

// serveLayerMetrics derives the serve layer's figures from the job
// timestamps and the last pass's server counters.
func serveLayerMetrics(samples []jobSample, last servePass) []metric {
	perPass := serveJobs / 10
	var submit, first, lastDec, queue, runT []float64
	for _, s := range samples {
		submit = append(submit, s.submit*1e3)
		queue = append(queue, s.queue*1e3)
		runT = append(runT, s.run*1e3)
		if s.order < perPass {
			first = append(first, s.submit*1e3)
		}
		if s.order >= serveJobs-perPass {
			lastDec = append(lastDec, s.submit*1e3)
		}
	}
	st := tailOf(submit)
	poll := fmt.Sprintf("resolution %s (poll interval)", servePoll)
	return []metric{
		{Name: "serve.submit_p50_ms", Unit: "ms", Value: median(submit), Note: "Submit call, durable commit included"},
		{Name: "serve.submit_tail_ms", Unit: "ms", Value: st.Value, Note: st.String()},
		{Name: "serve.submit_first_decile_ms", Unit: "ms", Value: median(first), Note: "median Submit of each pass's first 10% of jobs"},
		{Name: "serve.submit_last_decile_ms", Unit: "ms", Value: median(lastDec), Note: "median Submit of each pass's last 10% of jobs"},
		{Name: "serve.queue_p50_ms", Unit: "ms", Value: median(queue), Note: poll},
		{Name: "serve.run_p50_ms", Unit: "ms", Value: median(runT), Note: poll},
		{Name: "serve.journal_bytes", Unit: "B", Value: float64(last.journalBytes), Note: "job journal at the end of the last pass"},
		{Name: "serve.units_done", Unit: "count", Value: float64(last.unitsDone), Note: "MetricsSnapshot, last pass"},
		{Name: "serve.shed", Unit: "count", Value: float64(last.shed), Note: "MetricsSnapshot rejections, last pass"},
	}
}

// passSpanMetrics summarizes the spans of the traced experiment passes:
// the precompute, each experiment, the renders and the golden checks,
// as seconds per pass. All of them move wall_s on this workload.
func passSpanMetrics(spans []span, passes int, ids []string, workload string) []metric {
	note := "moves wall_s on " + workload
	per := func(name string) float64 {
		s, _, _, _ := byName(spans, name)
		return s / float64(passes)
	}
	var ms []metric
	if _, _, _, n := byName(spans, "sweep.precompute"); n > 0 {
		ms = append(ms, metric{Name: "sweep.precompute_s", Unit: "s", Value: per("sweep.precompute"), Note: note})
	}
	sortedIDs := append([]string(nil), ids...)
	sort.Strings(sortedIDs)
	for _, id := range sortedIDs {
		ms = append(ms, metric{Name: "experiments." + id + "_s", Unit: "s", Value: per("experiments." + id), Note: note})
	}
	ms = append(ms,
		metric{Name: "textplot.render_s", Unit: "s", Value: per("textplot.render"), Note: note},
		metric{Name: "golden.check_s", Unit: "s", Value: per("golden.check"), Note: "benchmark's own output check"})
	for i, s := range spans {
		if s.Name == "pass" {
			ms = append(ms, metric{Name: "pass.self_s", Unit: "s", Value: selfTime(spans, i),
				Note: "first pass's time outside the layer spans (benchmark overhead)"})
			break
		}
	}
	return ms
}

// addLayerMetrics runs the layer replays and reports the tracing
// overhead against the logged untraced runs of this workload.
func addLayerMetrics(ctx context.Context, res *result, in layerInputs, tr *tracer, logPath string) error {
	vals, err := replayLayers(ctx, in, tr)
	if err != nil {
		return err
	}
	for _, l := range perLayer {
		v, ok := vals[l.name]
		if !ok {
			return fmt.Errorf("layer replay produced no %s", l.name)
		}
		res.Layers = append(res.Layers, metric{Name: l.name, Unit: l.unit, Value: v, Note: "moves " + l.moves})
	}
	res.Extra = append(res.Extra, tracingOverhead(res, logPath))
	return nil
}

// tracingOverhead compares the traced passes with the median of the
// untraced runs of the same workload logged on this host: wall_s on
// figures and coherence, jobs_per_s on serve.
func tracingOverhead(res *result, logPath string) metric {
	m := metric{Name: "tracing.overhead_frac", Unit: "ratio"}
	key := currentHost().Key()
	recs, _ := readLog(logPath)
	name, higher := "wall_s", false
	if res.Workload == "serve" {
		name, higher = "jobs_per_s", true
	}
	var base []float64
	for _, r := range recs {
		if r.Workload == res.Workload && !r.Traced && r.Host.Key() == key {
			if v, ok := r.lookup(name); ok {
				base = append(base, v)
			}
		}
	}
	traced, _ := res.lookup(name)
	if len(base) == 0 || traced == 0 {
		m.Note = "no untraced run of this workload logged on this host yet"
		return m
	}
	b := median(base)
	if higher {
		m.Value = b/traced - 1
	} else {
		m.Value = traced/b - 1
	}
	m.Note = fmt.Sprintf("traced %s %.4g vs median %.4g of %d untraced run(s)", name, traced, b, len(base))
	return m
}

// printResult writes the readable report and, last, the JSON line.
func printResult(w io.Writer, res *result) error {
	fmt.Fprintf(w, "perfbench: workload=%s seed=%d traced=%t passes=%d\n", res.Workload, res.Seed, res.Traced, res.Passes)
	fmt.Fprintf(w, "host: %s\n", res.Host.Key())
	for _, f := range res.Failures {
		fmt.Fprintf(w, "FAIL: %s\n", f)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue\tunit\tnote")
	for _, group := range [][]metric{res.EndToEnd, res.Layers, res.Extra} {
		for _, m := range group {
			fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\n", m.Name, m.Value, m.Unit, m.Note)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	shown := res.EndToEnd
	if res.Traced {
		shown = res.Layers
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]value{}}
	for _, m := range shown {
		line.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// appendLog adds res as one JSON line to the results log.
func appendLog(path string, res *result) error {
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readLog reads every result in the results log.
func readLog(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// report prints, per workload and end-to-end metric, the median,
// quartiles and spread of the logged untraced runs from this host.
// Runs from another host are counted and left out: their figures are
// not comparable.
func report(w io.Writer, path string) error {
	recs, err := readLog(path)
	if err != nil {
		return err
	}
	key := currentHost().Key()
	byWorkload := map[string][]result{}
	var names []string
	foreign := 0
	for _, r := range recs {
		if r.Traced {
			continue
		}
		if r.Host.Key() != key {
			foreign++
			continue
		}
		if byWorkload[r.Workload] == nil {
			names = append(names, r.Workload)
		}
		byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
	}
	fmt.Fprintf(w, "host: %s (%d run(s) from other hosts left out)\n", key, foreign)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\truns\tmedian\tq1\tq3\tspread")
	for _, name := range names {
		for _, e := range endToEnd {
			var vals []float64
			for _, r := range byWorkload[name] {
				if v, ok := get(r.EndToEnd, e.name); ok {
					vals = append(vals, v)
				}
			}
			q1, _, q3, qerr := quartiles(vals)
			sp, _ := spread(vals)
			if qerr != nil {
				fmt.Fprintf(tw, "%s\t%s\t%d\t%.6g\t-\t-\t-\n", name, e.name, len(vals), median(vals))
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.6g\t%.6g\t%.6g\t%.2f%%\n", name, e.name, len(vals), median(vals), q1, q3, 100*sp)
		}
	}
	return tw.Flush()
}

// writeJSON writes v to path.
func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// regenerateGoldens renders every experiment once and stores the
// renders as goldens.
func regenerateGoldens(ctx context.Context, cacheDir, dir string) error {
	traces, _, err := loadTraces(cacheDir)
	if err != nil {
		return err
	}
	renders := map[string]string{}
	for _, coh := range []bool{false, true} {
		p := runExpPass(ctx, traces, experimentIDs(coh), !coh, false, nil)
		if p.failed > 0 {
			return errors.New(strings.Join(p.failures, "; "))
		}
		for id, text := range p.renders {
			renders[id] = text
		}
	}
	return writeGoldens(dir, renders)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}
