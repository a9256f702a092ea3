package main

import (
	"testing"

	"cachewrite/internal/cache"
	"cachewrite/internal/core"
	"cachewrite/internal/workload"
)

func TestBuildConfigPolicies(t *testing.T) {
	cases := []struct {
		hit, miss string
		wantHit   cache.WriteHitPolicy
		wantMiss  cache.WriteMissPolicy
	}{
		{"write-through", "fetch-on-write", cache.WriteThrough, cache.FetchOnWrite},
		{"wt", "fow", cache.WriteThrough, cache.FetchOnWrite},
		{"write-back", "write-validate", cache.WriteBack, cache.WriteValidate},
		{"wb", "wv", cache.WriteBack, cache.WriteValidate},
		{"WB", "WV", cache.WriteBack, cache.WriteValidate},
		{"Write-Through", "FOW", cache.WriteThrough, cache.FetchOnWrite},
		{"wt", "wa", cache.WriteThrough, cache.WriteAround},
		{"wt", "write-around", cache.WriteThrough, cache.WriteAround},
		{"wt", "wi", cache.WriteThrough, cache.WriteInvalidate},
		{"wt", "write-invalidate", cache.WriteThrough, cache.WriteInvalidate},
	}
	for _, tc := range cases {
		cfg, err := buildConfig(8<<10, 16, 1, tc.hit, tc.miss, 0, 64, 0)
		if err != nil {
			t.Fatalf("%s/%s: %v", tc.hit, tc.miss, err)
		}
		if cfg.L1.WriteHit != tc.wantHit || cfg.L1.WriteMiss != tc.wantMiss {
			t.Errorf("%s/%s parsed to %v/%v", tc.hit, tc.miss, cfg.L1.WriteHit, cfg.L1.WriteMiss)
		}
	}
}

func TestBuildConfigErrors(t *testing.T) {
	if _, err := buildConfig(8<<10, 16, 1, "nope", "fow", 0, 64, 0); err == nil {
		t.Error("bad hit policy accepted")
	}
	if _, err := buildConfig(8<<10, 16, 1, "wb", "nope", 0, 64, 0); err == nil {
		t.Error("bad miss policy accepted")
	}
	if _, err := buildConfig(8<<10, 16, 1, "", "fow", 0, 64, 0); err == nil {
		t.Error("empty hit policy accepted")
	}
	if _, err := buildConfig(8<<10, 16, 1, "wb", "", 0, 64, 0); err == nil {
		t.Error("empty miss policy accepted")
	}
}

func TestBuildConfigOptions(t *testing.T) {
	cfg, err := buildConfig(8<<10, 16, 2, "wb", "fow", 256<<10, 32, 5)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.L1.Assoc != 2 {
		t.Errorf("assoc = %d", cfg.L1.Assoc)
	}
	if cfg.WriteCache == nil || cfg.WriteCache.Entries != 5 {
		t.Error("write cache not configured")
	}
	if cfg.L2 == nil || cfg.L2.Size != 256<<10 || cfg.L2.LineSize != 32 {
		t.Error("L2 not configured")
	}
	cfg, err = buildConfig(8<<10, 16, 1, "wb", "fow", 0, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.WriteCache != nil || cfg.L2 != nil {
		t.Error("optional components configured unrequested")
	}
}

func TestPrintResultSmoke(t *testing.T) {
	// printResult only formats; run it over a real small simulation to
	// keep the output paths exercised.
	cfg, err := buildConfig(1<<10, 16, 1, "wt", "wi", 16<<10, 64, 5)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.Generate("liver", 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(cfg, tr.Slice(0, 10000))
	if err != nil {
		t.Fatal(err)
	}
	printResult(cfg, tr.Name, res) // must not panic
}
