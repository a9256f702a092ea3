// Patterns crosses the canonical synthetic access patterns with the
// four write-miss policies and prints the miss-rate matrix — the
// fastest way to build intuition for when each policy wins:
//
//   - streaming writes: write-validate eliminates everything;
//   - block copy: no-fetch policies recover the wasted fetches (§4);
//   - read-modify-write: policies barely matter (linpack's lesson);
//   - re-read-old-data: write-around's niche (liver's lesson);
//   - pointer chase: writes are irrelevant, all policies tie.
package main

import (
	"fmt"
	"log"

	"cachewrite/internal/cache"
	"cachewrite/internal/synth"
	"cachewrite/internal/trace"
)

func main() {
	patterns := []struct {
		name string
		t    *trace.Trace
	}{
		{"streaming writes", synth.Sequential(trace.Write, 0x100000, 20000, 8, 8, 2)},
		{"block copy", synth.Copy(0x100000, 0x800000, 10000, 8)},
		{"read-modify-write", rmw()},
		{"re-read old data", reReadOld()},
		{"pointer chase", chase()},
	}

	fmt.Printf("%-18s", "miss rate (%)")
	for _, p := range []cache.WriteMissPolicy{cache.FetchOnWrite, cache.WriteValidate, cache.WriteAround, cache.WriteInvalidate} {
		fmt.Printf(" %16s", p)
	}
	fmt.Println()
	for _, pat := range patterns {
		fmt.Printf("%-18s", pat.name)
		for _, p := range []cache.WriteMissPolicy{cache.FetchOnWrite, cache.WriteValidate, cache.WriteAround, cache.WriteInvalidate} {
			hit := cache.WriteBack
			if !p.Allocates() {
				hit = cache.WriteThrough
			}
			c, err := cache.New(cache.Config{Size: 8 << 10, LineSize: 16, Assoc: 1,
				WriteHit: hit, WriteMiss: p})
			if err != nil {
				log.Fatal(err)
			}
			c.AccessTrace(pat.t)
			fmt.Printf(" %15.2f%%", 100*c.Stats().MissRate())
		}
		fmt.Println()
	}
}

// rmw reads then writes each word (the saxpy shape).
func rmw() *trace.Trace {
	t := &trace.Trace{Name: "rmw"}
	for i := 0; i < 10000; i++ {
		a := 0x100000 + uint32(i*8)
		t.Append(trace.Event{Addr: a, Size: 8, Gap: 1, Kind: trace.Read})
		t.Append(trace.Event{Addr: a, Size: 8, Gap: 1, Kind: trace.Write})
	}
	return t
}

// reReadOld writes a region, then re-reads the *original* region it
// displaced — liver's pattern, where write-around shines.
func reReadOld() *trace.Trace {
	t := &trace.Trace{Name: "rereads"}
	// Inputs fit in the cache; results alias the same sets.
	for round := 0; round < 50; round++ {
		for i := 0; i < 400; i++ {
			t.Append(trace.Event{Addr: 0x10000 + uint32(i*16), Size: 8, Gap: 1, Kind: trace.Read})
			// Result region maps onto the same cache sets (8KB apart).
			t.Append(trace.Event{Addr: 0x10000 + 0x2000 + uint32(i*16), Size: 8, Gap: 1, Kind: trace.Write})
		}
	}
	return t
}

func chase() *trace.Trace {
	t, err := synth.PointerChase(11, 4096, 40000, 64)
	if err != nil {
		log.Fatal(err)
	}
	return t
}
