package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"cachewrite/internal/experiments"
	"cachewrite/internal/serve"
	"cachewrite/internal/trace"
	"cachewrite/internal/workload"
)

func TestNormalizeCPUModel(t *testing.T) {
	for _, c := range []struct{ raw, want string }{
		{" Intel(R) Xeon(R) Processor @ 2.10GHz", "Intel(R) Xeon(R) Processor"},
		{"Intel(R) Xeon(R) Processor", "Intel(R) Xeon(R) Processor"},
		{"Intel(R)  Xeon(R) CPU E5-2680 v4 @2.40GHz\t", "Intel(R) Xeon(R) CPU E5-2680 v4"},
		{"ARM Cortex @ 1800 MHz", "ARM Cortex"},
		{"AMD EPYC 7B13 64-Core Processor", "AMD EPYC 7B13 64-Core Processor"},
		{"", ""},
	} {
		if got := normalizeCPUModel(c.raw); got != c.want {
			t.Errorf("normalizeCPUModel(%q) = %q, want %q", c.raw, got, c.want)
		}
	}
}

func TestHostKeyIgnoresRawModel(t *testing.T) {
	a := Host{GOOS: "linux", GOARCH: "amd64", NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0",
		CPUModel: normalizeCPUModel("Intel(R) Xeon(R) Processor @ 2.10GHz"), RawCPUModel: "Intel(R) Xeon(R) Processor @ 2.10GHz"}
	b := a
	b.CPUModel, b.RawCPUModel = normalizeCPUModel("Intel(R) Xeon(R) Processor"), "Intel(R) Xeon(R) Processor"
	if a.Key() != b.Key() {
		t.Errorf("same part with and without a frequency suffix: keys %q and %q differ", a.Key(), b.Key())
	}
	c := a
	c.NumCPU = 1
	if a.Key() == c.Key() {
		t.Error("hosts with different core counts must not share a key")
	}
}

func TestDiffText(t *testing.T) {
	if d := diffText("a\nb\n", "a\nb\n"); d != "" {
		t.Errorf("identical texts: %q", d)
	}
	if d := diffText("a\nb\n", "a\nc\n"); !strings.Contains(d, "line 2") {
		t.Errorf("changed line 2: got %q", d)
	}
	if d := diffText("a\n", "a\nextra\n"); !strings.Contains(d, "line 2") {
		t.Errorf("appended line: got %q", d)
	}
	if d := diffText("a\nb", "a\nb\n"); d == "" {
		t.Error("a missing final newline must count as a difference")
	}
}

func TestEveryExperimentHasAGolden(t *testing.T) {
	ids := append(experimentIDs(false), experimentIDs(true)...)
	if len(ids) != len(experiments.IDs()) {
		t.Fatalf("figures and coherence cover %d of %d experiments", len(ids), len(experiments.IDs()))
	}
	for _, id := range ids {
		want, err := golden(id)
		if err != nil {
			t.Error(err)
			continue
		}
		// A golden with one byte changed must be caught.
		corrupt := strings.Replace(want, "0", "1", 1)
		if corrupt == want {
			corrupt = want + " "
		}
		if diffText(corrupt, want) == "" {
			t.Errorf("%s: a corrupted golden compares equal", id)
		}
	}
	for _, id := range experimentIDs(true) {
		if !strings.HasPrefix(id, cohPrefix) {
			t.Errorf("coherence workload holds %s", id)
		}
	}
}

func TestSeededOrderIsAPermutation(t *testing.T) {
	ids := experimentIDs(false)
	a, b := seededOrder(ids, 7), seededOrder(ids, 7)
	if !reflect.DeepEqual(a, b) {
		t.Error("one seed gave two orders")
	}
	if reflect.DeepEqual(a, seededOrder(ids, 8)) {
		t.Error("seeds 7 and 8 gave the same order")
	}
	s := append([]string(nil), a...)
	sort.Strings(s)
	want := append([]string(nil), ids...)
	sort.Strings(want)
	if !reflect.DeepEqual(s, want) {
		t.Error("seeded order is not a permutation of the ids")
	}
}

func TestServeSpecsFollowTheSeed(t *testing.T) {
	a, b := serveSpecs(3), serveSpecs(3)
	if !reflect.DeepEqual(a, b) {
		t.Error("one seed gave two different spec sets")
	}
	if reflect.DeepEqual(a, serveSpecs(4)) {
		t.Error("seeds 3 and 4 gave identical spec sets")
	}
	if len(a) != serveClients {
		t.Fatalf("%d clients, want %d", len(a), serveClients)
	}
	total := 0
	for _, client := range a {
		for _, s := range client {
			total++
			cfgs, err := s.Configs()
			if err != nil || len(cfgs) == 0 || len(cfgs) > 8 {
				t.Errorf("spec %s: %d configs, err %v", specKey(s), len(cfgs), err)
			}
			if s.Events != serveEvents || len(s.Workloads) != 1 {
				t.Errorf("spec %s is not simload-shaped", specKey(s))
			}
		}
	}
	if total != serveJobs {
		t.Errorf("%d jobs, want %d", total, serveJobs)
	}
}

func TestCheckJobComparesRowsByteForByte(t *testing.T) {
	rows := []serve.Row{{Size: 4096, Line: 16, Assoc: 1, WriteHit: "wb", WriteMiss: "fow", MissRate: 0.125}}
	want, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	st := serve.JobStatus{State: serve.StateDone, Results: []serve.WorkloadResult{{Workload: "yacc", Rows: rows}}}
	if msg := checkJob(st, want); msg != "" {
		t.Errorf("matching rows rejected: %s", msg)
	}
	off := append([]serve.Row(nil), rows...)
	off[0].MissRate = 0.1250000001
	st.Results[0].Rows = off
	if msg := checkJob(st, want); msg == "" {
		t.Error("rows differing in the last digit were accepted")
	}
	st.Results[0].Rows = rows
	st.State = serve.StatePartial
	if msg := checkJob(st, want); msg == "" {
		t.Error("a partial job was accepted")
	}
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json and the metrics
// the harness prints in step.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the harness: %v", err)
	}
	type entry struct{ Name, Unit, Better string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var e2e, layers []entry
	for _, e := range endToEnd {
		e2e = append(e2e, entry{e.name, e.unit, e.better})
	}
	for _, l := range perLayer {
		layers = append(layers, entry{l.name, l.unit, l.better})
	}
	if !reflect.DeepEqual(b.EndToEnd, e2e) {
		t.Errorf("end_to_end in BENCHMARK.json = %v, harness prints %v", b.EndToEnd, e2e)
	}
	if !reflect.DeepEqual(b.PerLayer, layers) {
		t.Errorf("per_layer in BENCHMARK.json = %v, harness prints %v", b.PerLayer, layers)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if want := []string{"figures", "coherence"}; !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
}

func TestPassCountsGoldenMismatchAsFailure(t *testing.T) {
	var traces []*trace.Trace
	for _, name := range workload.PaperOrder() {
		full, err := workload.Generate(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		// Truncated traces give renders that differ from the goldens.
		traces = append(traces, full.Slice(0, 5000))
	}
	ids := []string{"fig1", "ext-coh-schemes"}
	p := runExpPass(context.Background(), traces, ids, true, true, nil)
	if p.attempted != 2 || p.failed != 2 {
		t.Errorf("attempted %d failed %d, want 2 and 2: %v", p.attempted, p.failed, p.failures)
	}
	p = runExpPass(context.Background(), traces, ids, false, false, nil)
	if p.failed != 0 || len(p.renders) != 2 {
		t.Errorf("unchecked pass: failed %d, %d renders: %v", p.failed, len(p.renders), p.failures)
	}
}
