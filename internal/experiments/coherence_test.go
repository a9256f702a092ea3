package experiments

import (
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"cachewrite/internal/cache"
	"cachewrite/internal/coherence"
	"cachewrite/internal/textplot"
	"cachewrite/internal/trace"
)

// TestCohBaseIsCompactedPrefix: the memoized base trace equals the
// whole trace compacted and then truncated, event for event, even when
// the suffix touches superblocks the prefix never does. Those suffix
// superblocks sit between the prefix's, so ranking only the prefix
// would move the prefix's upper superblock down a slot.
func TestCohBaseIsCompactedPrefix(t *testing.T) {
	tr := &trace.Trace{Name: "prefix"}
	for i := 0; i < cohMaxEvents+5000; i++ {
		block := uint32(i%2) * 40 // prefix: superblocks 0 and 40
		if i >= cohMaxEvents {
			block = 7 + uint32(i%3)*11 // suffix: 7, 18 and 29
		}
		kind := trace.Read
		if i%3 == 0 {
			kind = trace.Write
		}
		tr.Append(trace.Event{Addr: block<<24 | uint32(i*8)&0xffff, Size: 4, Kind: kind, Gap: uint16(i % 5)})
	}
	env := NewEnvFromTraces([]*trace.Trace{tr})
	got, err := cohBase(env, 0)
	if err != nil {
		t.Fatal(err)
	}
	full, err := trace.CompactRegions(tr, 24)
	if err != nil {
		t.Fatal(err)
	}
	want := full.Events[:cohMaxEvents]
	if got.Len() != len(want) {
		t.Fatalf("base trace has %d events, want %d", got.Len(), len(want))
	}
	for i := range want {
		if got.Events[i] != want[i] {
			t.Fatalf("event %d: got %+v, want %+v", i, got.Events[i], want[i])
		}
	}
	if got.Events[1].Addr>>24 != 4 {
		t.Fatalf("prefix superblock 40 compacted to slot %d, want 4 (ranked over the whole trace)", got.Events[1].Addr>>24)
	}
	if cap(got.Events) != cohMaxEvents {
		t.Fatalf("base trace keeps capacity %d: it still pins the full compacted trace", cap(got.Events))
	}
}

// renderCoh renders one coherence experiment as paperfigs prints it.
func renderCoh(t *testing.T, e *Env, id string) string {
	t.Helper()
	res, err := Run(e, id)
	if err != nil {
		t.Errorf("%s: %v", id, err)
		return ""
	}
	if res.Chart != nil {
		return textplot.RenderChart(res.Chart)
	}
	return textplot.RenderTable(res.Table)
}

// TestCohPoolDeterministic: the coherence renders do not depend on the
// pool's width or on runners racing on one Env. Run under -race, this
// also checks that the pool and the memo share no unsynchronized
// state.
func TestCohPoolDeterministic(t *testing.T) {
	ids := []string{"ext-coh-miss", "ext-coh-traffic", "ext-coh-schemes"}
	prev := runtime.GOMAXPROCS(1)
	want := make([]string, len(ids))
	serial := syntheticEnv()
	for i, id := range ids {
		want[i] = renderCoh(t, serial, id)
	}
	runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)

	got := make([]string, len(ids))
	shared := syntheticEnv()
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = renderCoh(t, shared, id)
		}()
	}
	wg.Wait()
	for i, id := range ids {
		if got[i] != want[i] {
			t.Errorf("%s differs between one worker and two racing runners:\n--- one\n%s\n--- two\n%s", id, want[i], got[i])
		}
	}
}

// TestCohRunAllReturnsGroupError: a trace whose compacted footprint
// spans more than one window stride makes every multi-core workload
// collide. The pool returns that error and every worker exits.
func TestCohRunAllReturnsGroupError(t *testing.T) {
	tr := &trace.Trace{Name: "wide"}
	for i := 0; i < 4000; i++ {
		// Twelve occupied superblocks compact to 192MB, over the
		// 128MB stride between the cores' windows.
		tr.Append(trace.Event{Addr: uint32(i%12)<<24 | uint32(i*16)&0xfff, Size: 4, Kind: trace.Write})
	}
	env := NewEnvFromTraces([]*trace.Trace{tr, tr})
	var keys []cohKey
	for ti := range env.Traces {
		for _, cores := range cohDegrees {
			keys = append(keys, cohKey{ti: ti, p: cache.FetchOnWrite, scheme: coherence.Invalidate, cores: cores})
		}
	}
	before := runtime.NumGoroutine()
	prev := runtime.GOMAXPROCS(2)
	_, err := cohRunAll(env, keys)
	runtime.GOMAXPROCS(prev)
	if err == nil || !strings.Contains(err.Error(), "collide") {
		t.Fatalf("cohRunAll = %v, want the window collision", err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left running after the pool returned, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
	// The 1-core workloads fit; asked for on demand, they still run.
	k := keys[slices.IndexFunc(keys, func(k cohKey) bool { return k.cores == 1 })]
	if _, err := cohRunAll(env, []cohKey{k}); err != nil {
		t.Fatalf("1-core simulation failed: %v", err)
	}
}
