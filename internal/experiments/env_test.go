package experiments

import (
	"context"
	"sync"
	"testing"

	"cachewrite/internal/cache"
	"cachewrite/internal/sweep"
)

// TestCacheStatsComputeOnceConcurrent hammers the memo from many
// goroutines (run under -race by `make check`) and asserts the
// misses-once contract: every distinct key, cache or write-cache, is
// simulated exactly once, no matter how many callers race on it, and
// every caller sees the identical result.
func TestCacheStatsComputeOnceConcurrent(t *testing.T) {
	env := syntheticEnv()
	keys := []func(e *Env) (any, error){
		func(e *Env) (any, error) { return e.CacheStats(0, stdConfig(1<<10, StdLineSize)) },
		func(e *Env) (any, error) { return e.CacheStats(0, stdConfig(2<<10, StdLineSize)) },
		func(e *Env) (any, error) { return e.CacheStats(1, stdConfig(1<<10, StdLineSize)) },
		func(e *Env) (any, error) { return e.CacheStats(1, stdConfig(StdCacheSize, 32)) },
		func(e *Env) (any, error) { return writeCacheRemoved(e, 0, 4) },
		func(e *Env) (any, error) { return writeCacheRemoved(e, 1, 4) },
		func(e *Env) (any, error) { return writeCacheRemoved(e, 1, 16) },
	}
	want := make([]any, len(keys))
	fresh := syntheticEnv()
	for i, k := range keys {
		v, err := k(fresh)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				k := (g + i) % len(keys)
				v, err := keys[k](env)
				if err != nil {
					errs <- err
					return
				}
				if v != want[k] {
					t.Errorf("concurrent call %d returned a divergent result", k)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := env.Computes(); got != uint64(len(keys)) {
		t.Fatalf("memo computed %d simulations for %d distinct keys (misses-once violated)", got, len(keys))
	}
}

// TestRunnersShareSimulations: runners that read one sweep share its
// simulations through the memo. After the gang precompute, Fig 7 runs
// the 17 write-cache sizes per trace and Figs 8-9 reuse them;
// ext-coh-miss runs 4 policies x 4 sharing degrees per trace (plus one
// compacted base trace per trace, a memo entry too), ext-coh-traffic
// reuses them, and ext-coh-schemes adds only its two non-MSI schemes
// and its shared-L1 baseline per trace.
func TestRunnersShareSimulations(t *testing.T) {
	env := syntheticEnv()
	if err := env.PrecomputeSweep(context.Background(), sweep.Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	n := uint64(len(env.Traces))
	for _, c := range []struct {
		id   string
		want uint64
	}{
		{"fig7", 17 * n},
		{"fig8", 0},
		{"fig9", 0},
		{"ext-coh-miss", 16*n + n},
		{"ext-coh-traffic", 0},
		{"ext-coh-schemes", 2*n + n},
	} {
		before := env.Computes()
		if _, err := Run(env, c.id); err != nil {
			t.Fatalf("%s: %v", c.id, err)
		}
		if got := env.Computes() - before; got != c.want {
			t.Errorf("%s ran %d simulations, want %d", c.id, got, c.want)
		}
	}
}

// TestCacheStatsMemoizedErrors: a failing key is also computed once and
// every caller sees the same error.
func TestCacheStatsMemoizedErrors(t *testing.T) {
	env := syntheticEnv()
	bad := cache.Config{Size: 7}
	if _, err := env.CacheStats(0, bad); err == nil {
		t.Fatal("invalid config succeeded")
	}
	if _, err := env.CacheStats(0, bad); err == nil {
		t.Fatal("memoized invalid config succeeded")
	}
	if got := env.Computes(); got != 1 {
		t.Fatalf("failing key computed %d times, want 1", got)
	}
}

// TestPrecomputeGangGoldenEquality is the golden-equality gate for the
// gang engine through the Env path: after a gang-driven PrecomputeSweep,
// every sweep key must be memoized bit-identically to what a fresh
// sequential simulation produces, for every write-hit/write-miss combo
// in the paper sweep — and the precomputed env must not simulate again
// when the figures read those keys back.
func TestPrecomputeGangGoldenEquality(t *testing.T) {
	env := syntheticEnv()
	if err := env.PrecomputeSweep(context.Background(), sweep.Options{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	preComputes := env.Computes()
	if preComputes != 0 {
		t.Fatalf("gang precompute used the sequential path %d times", preComputes)
	}
	fresh := syntheticEnv()
	for ti := range env.Traces {
		for _, cfg := range SweepConfigs() {
			a, err := env.CacheStats(ti, cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := fresh.CacheStats(ti, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("gang-precomputed stats differ from sequential for %s on trace %d", cfg, ti)
			}
		}
	}
	if got := env.Computes(); got != 0 {
		t.Fatalf("CacheStats re-simulated %d precomputed keys", got)
	}
}

// TestPrecomputeCancelled: a cancelled context aborts the warmup with
// its error instead of hanging (the old channel-fed pool could strand
// its producer forever).
func TestPrecomputeCancelled(t *testing.T) {
	env := syntheticEnv()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := env.PrecomputeSweep(ctx, sweep.Options{Workers: 2}); err == nil {
		t.Fatal("PrecomputeSweep(cancelled) returned nil")
	}
}
