package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"cachewrite/internal/experiments"
	"cachewrite/internal/sweep"
	"cachewrite/internal/textplot"
	"cachewrite/internal/trace"
)

// cohPrefix marks the multi-core experiments: they make up the
// coherence workload and are left out of figures.
const cohPrefix = "ext-coh-"

// experimentIDs returns, in paper order, the ids of the coherence
// workload (coherence true) or of the figures workload.
func experimentIDs(coherence bool) []string {
	var ids []string
	for _, id := range experiments.IDs() {
		if strings.HasPrefix(id, cohPrefix) == coherence {
			ids = append(ids, id)
		}
	}
	return ids
}

// seededOrder is the workload's input for one seed: the order in which
// the experiments are requested. Outputs do not depend on it, so one
// set of goldens serves every seed.
func seededOrder(ids []string, seed int64) []string {
	out := make([]string, len(ids))
	for i, j := range rand.New(rand.NewSource(seed)).Perm(len(ids)) {
		out[i] = ids[j]
	}
	return out
}

// render is paperfigs' default text output for one experiment.
func render(res experiments.Result) string {
	var b strings.Builder
	if res.Chart != nil {
		b.WriteString(textplot.RenderChart(res.Chart))
		b.WriteByte('\n')
	}
	if res.Table != nil {
		b.WriteString(textplot.RenderTable(res.Table))
		b.WriteByte('\n')
	}
	return b.String()
}

// expPass is the outcome of one regeneration of a set of experiments.
type expPass struct {
	wall      float64 // seconds
	attempted int
	failed    int
	failures  []string
	computes  uint64
	results   map[string]experiments.Result
	renders   map[string]string
}

// runExpPass regenerates ids the way paperfigs does: a fresh memo over
// the loaded traces, the gang precompute of the figure sweep (figures
// only), then experiments.Run and the text render per id. Each render
// is compared with its golden unless check is false.
func runExpPass(ctx context.Context, traces []*trace.Trace, ids []string, precompute, check bool, tr *tracer) expPass {
	p := expPass{results: map[string]experiments.Result{}, renders: map[string]string{}}
	start := time.Now()
	root := tr.begin("pass", -1, "")
	env := experiments.NewEnvFromTraces(traces)
	if precompute {
		sp := tr.begin("sweep.precompute", root, "")
		if err := env.PrecomputeSweep(ctx, sweep.Options{SoftDeadline: 2 * time.Minute, Retries: 1}); err != nil {
			// paperfigs degrades the same way: the runners compute on
			// demand, so only time is lost.
			p.failures = append(p.failures, fmt.Sprintf("precompute: %v", err))
		}
		tr.end(sp, traceEvents(traces)*int64(len(experiments.SweepConfigs())), 0)
	}
	for _, id := range ids {
		p.attempted++
		sp := tr.begin("experiments."+id, root, "")
		res, err := experiments.Run(env, id)
		tr.end(sp, 0, 0)
		if err != nil {
			p.failed++
			p.failures = append(p.failures, fmt.Sprintf("%s: %v", id, err))
			continue
		}
		sp = tr.begin("textplot.render", root, "")
		text := render(res)
		tr.end(sp, 0, int64(len(text)))
		p.results[id], p.renders[id] = res, text
		if !check {
			continue
		}
		sp = tr.begin("golden.check", root, "")
		want, err := golden(id)
		if err == nil {
			if d := diffText(want, text); d != "" {
				err = fmt.Errorf("render differs from golden: %s", d)
			}
		}
		tr.end(sp, 0, int64(len(want)))
		if err != nil {
			p.failed++
			p.failures = append(p.failures, fmt.Sprintf("%s: %v", id, err))
		}
	}
	p.computes = env.Computes()
	tr.end(root, 0, 0)
	p.wall = time.Since(start).Seconds()
	return p
}

// traceEvents is the total event count of ts.
func traceEvents(ts []*trace.Trace) int64 {
	var n int64
	for _, t := range ts {
		n += int64(t.Len())
	}
	return n
}
