package coherence

import (
	"testing"

	"cachewrite/internal/cache"
	"cachewrite/internal/hierarchy"
	"cachewrite/internal/trace"
)

// FuzzSystemInvariants decodes a system and a short base trace from
// the fuzz bytes and checks, after Run and Flush, the invariants that
// hold for every configuration: byte-level single writer, the L1→L2
// link counters equal to the sum over every L1, and at one core the
// exact statistics of the single-core hierarchy.
//
// Layout: byte 0 picks cores (1–4), scheme, L2 on/off and the write-hit
// policy; byte 1 the write-miss policy and the shared fraction; byte
// 2 the stagger; then 4 bytes per event (12-bit address, size 1–8,
// kind, gap).
func FuzzSystemInvariants(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0, 0x00, 0x01, 0x0c, 0, 0x00, 0x01, 0x04, 0})
	f.Add([]byte{0x03, 0x8f, 7, 0x10, 0x00, 0x0b, 1, 0x10, 0x00, 0x03, 2, 0x1c, 0x00, 0x0f, 0})
	f.Add([]byte{0x3e, 0x5a, 1, 0x3e, 0x00, 0x0f, 0, 0x40, 0x00, 0x08, 0, 0x3e, 0x00, 0x0b, 3, 0x40, 0x00, 0x00, 1})
	f.Add([]byte{0x2d, 0xcf, 0, 0x00, 0x01, 0x0f, 0, 0x00, 0x01, 0x0f, 0, 0x04, 0x01, 0x08, 0, 0x00, 0x01, 0x0f, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		h, m := data[0], data[1]
		cores := 1 + int(h&3)
		var l2 *cache.Config
		if h>>4&1 == 1 {
			l2 = l2cfg()
		}
		hit := cache.WriteThrough
		if h>>5&1 == 1 {
			hit = cache.WriteBack
		}
		l1 := l1cfg(hit, cache.WriteMissPolicies()[m&3])
		cfg := Config{Cores: cores, L1: l1, L2: l2, Scheme: Scheme(h >> 2 & 3 % 3)}
		base := &trace.Trace{Name: "fuzz"}
		for b := data[3:]; len(b) >= 4 && base.Len() < 256; b = b[4:] {
			kind := trace.Read
			if b[2]&8 != 0 {
				kind = trace.Write
			}
			base.Append(trace.Event{Addr: uint32(b[0]) | uint32(b[1]&0x0f)<<8,
				Size: 1 + b[2]&7, Gap: uint16(b[3] & 7), Kind: kind})
		}
		w, err := BuildWorkload(base, WorkloadConfig{Cores: cores,
			SharedFraction: float64(m>>4) / 15, Stagger: uint64(data[2])})
		if err != nil {
			t.Fatal(err)
		}
		sys := mustSystem(t, cfg)
		if err := sys.Run(w); err != nil {
			t.Fatal(err)
		}
		sys.Flush()
		if err := sys.CheckSingleWriter(); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		st := sys.Stats()
		var tx, bytes uint64
		for i := 0; i < cores; i++ {
			ctx, cb := l1Link(sys.L1(i))
			tx += ctx
			bytes += cb
		}
		if st.L1ToL2Transactions != tx || st.L1ToL2Bytes != bytes {
			t.Fatalf("%+v: link %d tx / %dB, L1s report %d tx / %dB",
				cfg, st.L1ToL2Transactions, st.L1ToL2Bytes, tx, bytes)
		}
		if cores > 1 {
			return
		}
		ref, err := hierarchy.New(hierarchy.Config{L1: l1, L2: l2})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range w.PerCore[0].Events {
			ref.Access(e)
		}
		ref.Flush()
		if got, want := sys.L1(0).Stats(), ref.L1().Stats(); got != want {
			t.Fatalf("%+v: L1 stats differ from the hierarchy:\n got %+v\nwant %+v", cfg, got, want)
		}
		if l2 != nil && sys.L2().Stats() != ref.L2().Stats() {
			t.Fatalf("%+v: L2 stats differ from the hierarchy:\n got %+v\nwant %+v", cfg, sys.L2().Stats(), ref.L2().Stats())
		}
		if got, want := st, (Stats{Stats: ref.Stats()}); got != want {
			t.Fatalf("%+v: system stats differ from the hierarchy:\n got %+v\nwant %+v", cfg, got, want)
		}
	})
}
