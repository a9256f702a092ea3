package experiments

import (
	"fmt"

	"cachewrite/internal/cache"
	"cachewrite/internal/stats"
)

func init() {
	register("fig10", "write misses as % of all misses vs cache size (16B lines)", 100, fig10)
	register("fig11", "write misses as % of all misses vs line size (8KB caches)", 110, fig11)
	register("fig13", "write miss rate reductions of three write strategies vs cache size (16B lines)", 130, fig13)
	register("fig14", "total miss rate reductions of three write strategies vs cache size (16B lines)", 140, fig14)
	register("fig15", "write miss rate reductions of three write strategies vs line size (8KB caches)", 150, fig15)
	register("fig16", "total miss rate reductions of three write strategies vs line size (8KB caches)", 160, fig16)
	register("fig17", "empirical check of the relative fetch-traffic order of the four write-miss policies", 170, fig17)
}

// fig10 plots write misses as a percentage of all misses against cache
// size under fetch-on-write (the policy under which every write miss
// fetches).
func fig10(e *Env) (Result, error) {
	return configSweep(e, "fig10",
		"Write misses as a percent of all misses vs cache size for 16B lines",
		"cache size (B)", "write misses as % of all misses", CacheSizes,
		func(x int) (int, int) { return x, StdLineSize }, writeMissShare)
}

// fig11 plots the same against line size for 8KB caches.
func fig11(e *Env) (Result, error) {
	return configSweep(e, "fig11",
		"Write misses as a percent of all misses vs line size for 8KB caches",
		"line size (B)", "write misses as % of all misses", LineSizes,
		func(x int) (int, int) { return StdCacheSize, x }, writeMissShare)
}

// writeMissShare is the Figs 10-11 metric.
func writeMissShare(cs cache.Stats, _ int) float64 { return cs.WriteMissFraction() }

// strategies are the three no-fetch policies compared against
// fetch-on-write in Figs 13-16.
var strategies = []cache.WriteMissPolicy{cache.WriteValidate, cache.WriteAround, cache.WriteInvalidate}

// missReductions computes, for trace ti and geometry (size, line), the
// write-miss reduction (Figs 13/15 metric) and total-miss reduction
// (Figs 14/16 metric) of each no-fetch strategy relative to
// fetch-on-write.
//
// Reductions count all fetch-triggering misses: a write-validate
// allocation whose invalid bytes are later read induces a read miss
// which charges against the policy, exactly as the paper defines
// eliminated misses (§4). Write-around can exceed 100% write-miss
// reduction when leaving old lines resident also avoids read misses
// (the paper's liver case).
func missReductions(e *Env, ti, size, line int) (map[cache.WriteMissPolicy][2]float64, error) {
	fow, err := e.CacheStats(ti, stdConfig(size, line))
	if err != nil {
		return nil, err
	}
	out := make(map[cache.WriteMissPolicy][2]float64, len(strategies))
	for _, p := range strategies {
		cs, err := e.CacheStats(ti, policyConfig(size, line, p))
		if err != nil {
			return nil, err
		}
		saved := float64(fow.Misses()) - float64(cs.Misses())
		var wmr, tmr float64
		if fow.FetchedWriteMisses > 0 {
			wmr = saved / float64(fow.FetchedWriteMisses)
		}
		if fow.Misses() > 0 {
			tmr = saved / float64(fow.Misses())
		}
		out[p] = [2]float64{wmr, tmr}
	}
	return out, nil
}

func missReductionSweep(e *Env, id, title, xlabel string, xs []int, cfgOf func(x int) (size, line int), total bool) (Result, error) {
	ylabel := "% of write misses removed"
	if total {
		ylabel = "% of all misses removed"
	}
	chart := &stats.Chart{ID: id, Title: title, XLabel: xlabel, YLabel: ylabel, XScale: stats.Log2}
	idx := 0
	if total {
		idx = 1
	}
	for _, p := range strategies {
		err := benchSeries(e, chart, "/"+p.String(), "average/"+p.String(), xs, func(ti, x int) (float64, error) {
			size, line := cfgOf(x)
			red, err := missReductions(e, ti, size, line)
			return stats.Pct(red[p][idx]), err
		})
		if err != nil {
			return Result{}, err
		}
	}
	return Result{Chart: chart}, nil
}

func fig13(e *Env) (Result, error) {
	return missReductionSweep(e, "fig13",
		"Write miss rate reductions of three write strategies for 16B lines",
		"cache size (B)", CacheSizes,
		func(x int) (int, int) { return x, StdLineSize }, false)
}

func fig14(e *Env) (Result, error) {
	return missReductionSweep(e, "fig14",
		"Total miss rate reductions of three write strategies for 16B lines",
		"cache size (B)", CacheSizes,
		func(x int) (int, int) { return x, StdLineSize }, true)
}

func fig15(e *Env) (Result, error) {
	return missReductionSweep(e, "fig15",
		"Write miss rate reductions of three write strategies for 8KB caches",
		"line size (B)", LineSizes,
		func(x int) (int, int) { return StdCacheSize, x }, false)
}

func fig16(e *Env) (Result, error) {
	return missReductionSweep(e, "fig16",
		"Total miss rate reduction of three write strategies for 8KB caches",
		"line size (B)", LineSizes,
		func(x int) (int, int) { return StdCacheSize, x }, true)
}

// fig17 verifies the paper's partial order of fetch traffic (Fig 17):
// write-validate <= write-invalidate, write-around <= write-invalidate,
// and write-invalidate <= fetch-on-write, across every benchmark and
// the full capacity and line-size sweeps. (Write-validate and
// write-around are mutually unordered.)
func fig17(e *Env) (Result, error) {
	tbl := &stats.Table{ID: "fig17",
		Title:   "Relative order of fetch traffic for write miss alternatives (empirical check)",
		Columns: []string{"benchmark", "config", "WV misses", "WA misses", "WI misses", "FOW misses", "order holds"},
	}
	type geom struct{ size, line int }
	var geoms []geom
	for _, s := range CacheSizes {
		geoms = append(geoms, geom{s, StdLineSize})
	}
	for _, l := range LineSizes {
		if l != StdLineSize {
			geoms = append(geoms, geom{StdCacheSize, l})
		}
	}
	violations := 0
	for ti, t := range e.Traces {
		for _, g := range geoms {
			m := map[cache.WriteMissPolicy]uint64{}
			for _, p := range cache.WriteMissPolicies() {
				cs, err := e.CacheStats(ti, policyConfig(g.size, g.line, p))
				if err != nil {
					return Result{}, err
				}
				m[p] = cs.Misses()
			}
			holds := m[cache.WriteValidate] <= m[cache.WriteInvalidate] &&
				m[cache.WriteAround] <= m[cache.WriteInvalidate] &&
				m[cache.WriteInvalidate] <= m[cache.FetchOnWrite]
			if !holds {
				violations++
			}
			tbl.AddRow(t.Name, fmt.Sprintf("%dKB/%dB", g.size>>10, g.line),
				fmt.Sprint(m[cache.WriteValidate]), fmt.Sprint(m[cache.WriteAround]),
				fmt.Sprint(m[cache.WriteInvalidate]), fmt.Sprint(m[cache.FetchOnWrite]),
				fmt.Sprint(holds))
		}
	}
	tbl.AddRow("TOTAL", "", "", "", "", "", fmt.Sprintf("%d violations", violations))
	return Result{Table: tbl}, nil
}
