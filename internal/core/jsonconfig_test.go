package core

import (
	"strings"
	"testing"

	"cachewrite/internal/cache"
)

func TestLoadConfigFull(t *testing.T) {
	doc := `{
	  "l1": {
	    "size": 8192, "line_size": 16, "assoc": 1,
	    "write_hit": "write-through", "write_miss": "fetch-on-write"
	  },
	  "write_cache": {"entries": 5, "line_size": 16},
	  "victim_mode": true,
	  "l2": {
	    "size": 262144, "line_size": 64, "assoc": 4,
	    "write_hit": "wb", "write_miss": "fow", "replacement": "fifo"
	  }
	}`
	cfg, err := LoadConfig(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.L1.Size != 8192 || cfg.L1.WriteHit != cache.WriteThrough {
		t.Errorf("L1 = %+v", cfg.L1)
	}
	if cfg.WriteCache == nil || cfg.WriteCache.Entries != 5 {
		t.Error("write cache not loaded")
	}
	if !cfg.VictimMode {
		t.Error("victim mode not loaded")
	}
	if cfg.L2 == nil || cfg.L2.Replacement != cache.FIFO {
		t.Error("L2 not loaded")
	}
}

func TestLoadConfigVariantFields(t *testing.T) {
	doc := `{"l1": {"size": 8192, "line_size": 16, "assoc": 1,
	  "write_hit": "wb", "write_miss": "wv",
	  "valid_granularity": 8, "wv_miss_write_through": true}}`
	cfg, err := LoadConfig(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.L1.ValidGranularity != 8 || !cfg.L1.WVMissWriteThrough {
		t.Errorf("variants not loaded: %+v", cfg.L1)
	}
}

func TestLoadConfigErrors(t *testing.T) {
	cases := []string{
		`not json`,
		`{"l1": {"size": 8192, "line_size": 16, "assoc": 1, "write_hit": "nope", "write_miss": "fow"}}`,
		`{"l1": {"size": 8192, "line_size": 16, "assoc": 1, "write_hit": "wb", "write_miss": "nope"}}`,
		`{"l1": {"size": 8192, "line_size": 16, "assoc": 1, "write_miss": "fow"}}`,
		`{"l1": {"size": 8192, "line_size": 16, "assoc": 1, "write_hit": "wb"}}`,
		`{"l1": {"size": 8192, "line_size": 16, "assoc": 1, "write_hit": "wb", "write_miss": "fow", "replacement": "nope"}}`,
		`{"l1": {"size": 8192, "line_size": 16, "assoc": 1, "write_hit": "wb", "write_miss": "fow"}, "unknown_field": 1}`,
		`{"l1": {"size": 3000, "line_size": 16, "assoc": 1, "write_hit": "wb", "write_miss": "fow"}}`,
		`{"l1": {"size": 8192, "line_size": 16, "assoc": 1, "write_hit": "wb", "write_miss": "fow"},
		  "l2": {"size": 4096, "line_size": 64, "assoc": 4, "write_hit": "wb", "write_miss": "nope"}}`,
		`{"l1": {"size": 8192, "line_size": 16, "assoc": 1, "write_hit": "wb", "write_miss": "fow"}}  extra`,
	}
	for i, doc := range cases {
		if _, err := LoadConfig(strings.NewReader(doc)); err == nil {
			t.Errorf("case %d accepted:\n%s", i, doc)
		}
	}
	// The trailing-data case above relies on validation failing... check
	// a clean minimal doc parses.
	ok := `{"l1": {"size": 8192, "line_size": 16, "assoc": 1, "write_hit": "wb", "write_miss": "fow"}}`
	if _, err := LoadConfig(strings.NewReader(ok)); err != nil {
		t.Errorf("minimal config rejected: %v", err)
	}
}

// TestParseHelpers checks how a config's policy names are read: in any
// case, in short form, with the write policies required and an empty
// replacement meaning LRU.
func TestParseHelpers(t *testing.T) {
	base := JSONCache{Size: 8192, LineSize: 16, Assoc: 1}
	j := base
	j.WriteHit, j.WriteMiss, j.Replacement = "WT", "WI", "Fifo"
	cfg, err := j.toCacheConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.WriteHit != cache.WriteThrough || cfg.WriteMiss != cache.WriteInvalidate || cfg.Replacement != cache.FIFO {
		t.Errorf("case-insensitive short-form parse gave %+v", cfg)
	}
	j = base
	j.WriteMiss = "fow"
	if _, err := j.toCacheConfig(); err == nil {
		t.Error("empty write-hit accepted")
	}
	j = base
	j.WriteHit = "wb"
	if _, err := j.toCacheConfig(); err == nil {
		t.Error("empty write-miss accepted")
	}
	j.WriteMiss = "fow"
	if cfg, err := j.toCacheConfig(); err != nil || cfg.Replacement != cache.LRU {
		t.Errorf("empty replacement gave %v, %v; want lru", cfg.Replacement, err)
	}
}

func TestLoadConfigInclusiveAndSector(t *testing.T) {
	doc := `{
	  "l1": {"size": 8192, "line_size": 16, "assoc": 1,
	    "write_hit": "wb", "write_miss": "fow",
	    "valid_granularity": 8, "sector_fetch": true},
	  "l2": {"size": 262144, "line_size": 64, "assoc": 4,
	    "write_hit": "wb", "write_miss": "fow"},
	  "inclusive": true
	}`
	cfg, err := LoadConfig(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Inclusive || !cfg.L1.SectorFetch {
		t.Errorf("options not loaded: %+v", cfg)
	}
}
