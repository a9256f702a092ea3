package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"cachewrite/internal/serve"
	"cachewrite/internal/sweep"
	"cachewrite/internal/trace"
	"cachewrite/internal/workload"
)

// The serve workload's shape: a closed loop of serveClients clients
// (one per core of the 2-vCPU reference host), each submitting its
// next job only after the previous one reached a terminal state, as
// simload clients do. Jobs are simload-shaped small sweeps.
const (
	serveClients = 2
	serveJobs    = 400 // per pass, split evenly across the clients
	serveEvents  = 100_000
	// servePoll is the interval at which a client polls its job; it is
	// the resolution of the queue and run times.
	servePoll = time.Millisecond
)

// serveSpecs builds every client's job specs from the seed, in
// simload's makeSpecs shape: one workload, a two-size window, lines 16
// and 32, one write-miss pair.
func serveSpecs(seed int64) [][]serve.JobSpec {
	rng := rand.New(rand.NewSource(seed))
	names := workload.PaperOrder()
	sizePool := []int{4096, 8192, 16384, 32768}
	missPool := [][]string{{"fow", "wv"}, {"wa", "wi"}, {"fow", "wa"}}
	out := make([][]serve.JobSpec, serveClients)
	for ci := range out {
		out[ci] = make([]serve.JobSpec, serveJobs/serveClients)
		for ji := range out[ci] {
			lo := rng.Intn(len(sizePool) - 1)
			out[ci][ji] = serve.JobSpec{
				Tenant:      fmt.Sprintf("tenant-%02d", ci),
				RequestID:   fmt.Sprintf("req-%02d-%d", ci, ji),
				Workloads:   []string{names[rng.Intn(len(names))]},
				Scale:       1,
				Events:      serveEvents,
				Sizes:       append([]int(nil), sizePool[lo:lo+2]...),
				Lines:       []int{16, 32},
				Assocs:      []int{1},
				WriteHits:   []string{"wb"},
				WriteMisses: missPool[rng.Intn(len(missPool))],
			}
		}
	}
	return out
}

// specKey identifies the result of a spec: every field that reaches
// the simulation.
func specKey(s serve.JobSpec) string {
	return fmt.Sprintf("%v|%d|%d|%v|%v|%v|%v|%v", s.Workloads, s.Scale, s.Events, s.Sizes, s.Lines, s.Assocs, s.WriteHits, s.WriteMisses)
}

// specGrids resolves the distinct specs of specs against traces
// (indexed by workload name), in first-use order: each grid is the
// trace prefix a job sweeps and its configurations in the server's
// order.
func specGrids(specs [][]serve.JobSpec, traces map[string]*trace.Trace) ([]grid, error) {
	seen := map[string]bool{}
	var grids []grid
	for _, client := range specs {
		for _, s := range client {
			k := specKey(s)
			if seen[k] {
				continue
			}
			seen[k] = true
			cfgs, err := s.Configs()
			if err != nil {
				return nil, fmt.Errorf("spec %s: %w", k, err)
			}
			t := traces[s.Workloads[0]]
			if t.Len() > s.Events {
				t = t.Slice(0, s.Events)
			}
			grids = append(grids, grid{key: k, trace: t, cfgs: cfgs})
		}
	}
	return grids, nil
}

// goldenRows computes each grid's expected rows with the server's own
// arithmetic (serve.RowsFor) over an independent engine entry point
// (sweep.Gang), encoded for a byte-for-byte comparison.
func goldenRows(grids []grid) (map[string][]byte, error) {
	out := make(map[string][]byte, len(grids))
	for _, g := range grids {
		st, err := sweep.Gang(g.trace, g.cfgs)
		if err != nil {
			return nil, fmt.Errorf("golden %s: %w", g.key, err)
		}
		data, err := json.Marshal(serve.RowsFor(g.cfgs, st))
		if err != nil {
			return nil, err
		}
		out[g.key] = data
	}
	return out, nil
}

// serveSession is one in-process server with its Run loop.
type serveSession struct {
	srv    *serve.Server
	dir    string
	cancel context.CancelFunc
	done   chan error
}

// startServer builds a server with simserved's default limits over a
// new state directory under work, starts its Run loop, and warms its
// shared trace cache with one small job per workload so the measured
// jobs find decoded traces, as on a running server. The time it takes
// is one set-up sample.
func startServer(ctx context.Context, work, cacheDir string) (*serveSession, float64, error) {
	start := time.Now()
	dir, err := os.MkdirTemp(work, "serve-state-")
	if err != nil {
		return nil, 0, err
	}
	srv, err := serve.New(serve.Config{
		StateDir: dir,
		TraceDir: cacheDir,
		Now:      time.Now,
		Logf:     func(string, ...any) {},
	})
	if err != nil {
		return nil, 0, err
	}
	rctx, cancel := context.WithCancel(ctx)
	s := &serveSession{srv: srv, dir: dir, cancel: cancel, done: make(chan error, 1)}
	go func() { s.done <- srv.Run(rctx) }()
	for _, name := range workload.PaperOrder() {
		st, rej, err := srv.Submit(serve.JobSpec{Tenant: "warmup", RequestID: "warm-" + name,
			Workloads: []string{name}, Events: serveEvents, Sizes: []int{8192}})
		if err == nil && rej != nil {
			err = fmt.Errorf("shed: %s", rej.Reason)
		}
		if err == nil {
			st, err = s.wait(ctx, st.ID, nil)
		}
		if err == nil && st.State != serve.StateDone {
			err = fmt.Errorf("ended %s: %s", st.State, st.Error)
		}
		if err != nil {
			s.stop()
			return nil, 0, fmt.Errorf("warm-up job for %s: %w", name, err)
		}
	}
	return s, time.Since(start).Seconds(), nil
}

// wait polls job id until it is terminal. running, when non-nil,
// receives the time the job was first seen running.
func (s *serveSession) wait(ctx context.Context, id string, running *time.Time) (serve.JobStatus, error) {
	for {
		st, ok := s.srv.Job(id)
		if !ok {
			return st, fmt.Errorf("job %s vanished", id)
		}
		if running != nil && running.IsZero() && st.State != serve.StateQueued {
			*running = time.Now()
		}
		if st.State.Terminal() {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(servePoll):
		}
	}
}

// stop drains the server, waits for its Run loop to return and removes
// its state directory.
func (s *serveSession) stop() error {
	s.cancel()
	err := <-s.done
	return errors.Join(err, os.RemoveAll(s.dir))
}

// jobSample is one measured job, in seconds.
type jobSample struct {
	order   int // submission order across all clients
	submit  float64
	queue   float64
	run     float64
	latency float64
}

// servePass is the outcome of one closed-loop batch.
type servePass struct {
	wall         float64
	samples      []jobSample
	attempted    int
	failed       int
	failures     []string
	journal      []byte // the job journal as the pass left it
	shed         int64
	unitsDone    int64
	journalBytes int64
}

// runServePass drives the closed loop against sess and verifies every
// job's rows against goldens.
func runServePass(ctx context.Context, sess *serveSession, specs [][]serve.JobSpec, goldens map[string][]byte, tr *tracer) servePass {
	var (
		mu    sync.Mutex
		p     servePass
		order atomic.Int64
		wg    sync.WaitGroup
	)
	fail := func(msg string) {
		mu.Lock()
		p.failed++
		p.failures = append(p.failures, msg)
		mu.Unlock()
	}
	start := time.Now()
	root := tr.begin("pass", -1, "")
	for ci := range specs {
		wg.Add(1)
		go func(jobs []serve.JobSpec) {
			defer wg.Done()
			for _, spec := range jobs {
				if ctx.Err() != nil {
					return
				}
				mu.Lock()
				p.attempted++
				mu.Unlock()
				req := spec.Tenant + "/" + spec.RequestID
				job := tr.begin("serve.job", root, req)
				t0 := time.Now()
				n := int(order.Add(1)) - 1
				sp := tr.begin("serve.submit", job, req)
				st, rej, err := sess.srv.Submit(spec)
				tr.end(sp, 0, 0)
				submitted := time.Now()
				if err != nil || rej != nil {
					tr.end(job, 0, 0)
					if err == nil {
						err = fmt.Errorf("shed: %s", rej.Reason)
					}
					fail(fmt.Sprintf("%s: submit: %v", req, err))
					continue
				}
				var running time.Time
				sp = tr.begin("serve.wait", job, req)
				st, err = sess.wait(ctx, st.ID, &running)
				tr.end(sp, 0, 0)
				done := time.Now()
				tr.end(job, int64(serveEvents), 0)
				if running.IsZero() {
					running = done
				}
				if err != nil {
					fail(fmt.Sprintf("%s: %v", req, err))
					continue
				}
				if msg := checkJob(st, goldens[specKey(spec)]); msg != "" {
					fail(fmt.Sprintf("%s: %s", req, msg))
					continue
				}
				mu.Lock()
				p.samples = append(p.samples, jobSample{
					order:   n,
					submit:  submitted.Sub(t0).Seconds(),
					queue:   running.Sub(submitted).Seconds(),
					run:     done.Sub(running).Seconds(),
					latency: done.Sub(t0).Seconds(),
				})
				mu.Unlock()
			}
		}(specs[ci])
	}
	wg.Wait()
	tr.end(root, 0, 0)
	p.wall = time.Since(start).Seconds()
	m := sess.srv.MetricsSnapshot()
	p.shed = m.RejectedQueue + m.RejectedTenant + m.RejectedDraining + m.RejectedBreaker
	p.unitsDone = m.UnitsDone
	if data, err := os.ReadFile(filepath.Join(sess.dir, "jobs.journal")); err == nil {
		p.journal = data
		p.journalBytes = int64(len(data))
	}
	return p
}

// checkJob verifies a terminal job: it must be done with exactly the
// golden rows. It returns "" for a verified job.
func checkJob(st serve.JobStatus, want []byte) string {
	if st.State != serve.StateDone {
		return fmt.Sprintf("ended %s: %s", st.State, st.Error)
	}
	if len(st.Results) != 1 {
		return fmt.Sprintf("%d workload results, want 1", len(st.Results))
	}
	got, err := json.Marshal(st.Results[0].Rows)
	if err != nil {
		return err.Error()
	}
	if want == nil {
		return "no golden rows for this spec"
	}
	if d := diffText(string(want), string(got)); d != "" {
		return "rows differ from golden: " + d
	}
	return ""
}
