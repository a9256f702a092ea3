package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func roundTripBinary(t *testing.T, tr *Trace) *Trace {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	return got
}

func TestBinaryRoundTripEmpty(t *testing.T) {
	got := roundTripBinary(t, &Trace{Name: "empty"})
	if got.Name != "empty" || got.Len() != 0 {
		t.Fatalf("got %q with %d events", got.Name, got.Len())
	}
}

func TestBinaryRoundTripBasic(t *testing.T) {
	tr := testTrace()
	got := roundTripBinary(t, tr)
	if got.Name != tr.Name || !reflect.DeepEqual(got.Events, tr.Events) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got.Events, tr.Events)
	}
}

func TestBinaryRoundTripLargeAddressesAndJumps(t *testing.T) {
	tr := &Trace{Name: "jumps", Events: []Event{
		{Addr: 0xffff_fff8, Size: 8, Kind: Write, Gap: 0xffff},
		{Addr: 0, Size: 4, Kind: Read},                   // huge negative jump
		{Addr: 0x8000_0000, Size: 4, Kind: Read},         // huge positive jump
		{Addr: 0x8000_0010, Size: 16, Kind: Write},       // small delta
		{Addr: 0x8000_0008, Size: 8, Kind: Read, Gap: 1}, // small negative delta
	}}
	got := roundTripBinary(t, tr)
	if !reflect.DeepEqual(got.Events, tr.Events) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got.Events, tr.Events)
	}
}

func TestBinaryDeltaIsCompact(t *testing.T) {
	// Sequential access should cost well under 4 bytes/event.
	tr := &Trace{Name: "seq"}
	for i := 0; i < 10000; i++ {
		tr.Append(Event{Addr: uint32(0x1000 + 8*i), Size: 8, Kind: Write})
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if perEvent := float64(buf.Len()) / float64(tr.Len()); perEvent > 3.0 {
		t.Errorf("sequential trace costs %.2f bytes/event, want <= 3", perEvent)
	}
}

func TestBinaryRejectsNonPowerOfTwoSize(t *testing.T) {
	tr := &Trace{Events: []Event{{Addr: 0, Size: 6, Kind: Read}}}
	if err := WriteBinary(&bytes.Buffer{}, tr); err == nil {
		t.Fatal("size 6 encoded without error")
	}
}

func TestReadBinaryBadMagic(t *testing.T) {
	_, err := ReadBinary(strings.NewReader("NOPE....."))
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

// TestStreamBinaryBadInput checks that both binary decoders refuse a
// stream with a wrong magic number or no header at all.
func TestStreamBinaryBadInput(t *testing.T) {
	for _, in := range [][]byte{[]byte("XXXX"), nil} {
		if _, err := ReadBinary(bytes.NewReader(in)); err == nil {
			t.Errorf("ReadBinary accepted %q", in)
		}
		if _, _, err := ReadBinaryLenient(bytes.NewReader(in)); err == nil {
			t.Errorf("ReadBinaryLenient accepted %q", in)
		}
	}
}

func TestReadBinaryTruncated(t *testing.T) {
	tr := testTrace()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut += 3 {
		if _, err := ReadBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d bytes decoded without error", cut)
		}
	}
}

// TestReadBinaryForgedCountBoundsAllocation: a header may declare up
// to 2^64-1 events, so the strict decoder must not size its allocation
// by the count alone. A header declaring 2^27 events with no record
// behind it fails at EOF having allocated next to nothing; with one
// record behind it the allocation stays within the 64 MB cap.
func TestReadBinaryForgedCountBoundsAllocation(t *testing.T) {
	header := []byte{'C', 'W', 'T', '1', 0, 0x80, 0x80, 0x80, 0x40} // name "", 2^27 events
	if len(header) != 9 {
		t.Fatalf("header is %d bytes", len(header))
	}
	oneRecord := append(append([]byte(nil), header...), 0x00, 0x10) // read of 1 byte at 0x10
	for _, tc := range []struct {
		name  string
		in    []byte
		limit uint64
	}{
		{"header only", header, 1 << 20},
		{"one record", oneRecord, 65 << 20},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadBinary(bytes.NewReader(tc.in))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.EOF) {
			t.Errorf("%s: err = %v, want the truncation error (io.EOF)", tc.name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= tc.limit {
			t.Errorf("%s: decoding a forged 2^27-event header allocated %d bytes, want < %d", tc.name, got, tc.limit)
		}
	}
}

// TestBinaryRoundTripLarge round-trips a trace big enough to span many
// bufio refills through both decode modes.
func TestBinaryRoundTripLarge(t *testing.T) {
	const n = 200_000
	tr := &Trace{Name: "big"}
	for i := 0; i < n; i++ {
		tr.Append(Event{Addr: uint32(i * 8), Size: 8, Kind: Write})
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got := roundTripBinary(t, tr)
	if got.Name != tr.Name || !reflect.DeepEqual(got.Events, tr.Events) {
		t.Fatalf("strict round trip of %d events drifted", n)
	}
	if cap(got.Events) != n {
		t.Fatalf("strict decode capacity %d, want %d (one allocation sized from the header)", cap(got.Events), n)
	}
	lgot, ds, err := ReadBinaryLenient(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Damaged() || ds.Decoded != n || !reflect.DeepEqual(lgot.Events, tr.Events) {
		t.Fatalf("lenient decode of an intact %d-event trace: %v", n, ds)
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		tr := &Trace{Name: "prop"}
		sizes := []uint8{1, 2, 4, 8, 16, 32, 64}
		for i := 0; i < int(n); i++ {
			k := Read
			if r.Intn(2) == 0 {
				k = Write
			}
			size := sizes[r.Intn(len(sizes))]
			addr := uint32(r.Uint64()) &^ (uint32(size) - 1)
			tr.Append(Event{Addr: addr, Size: size, Gap: uint16(r.Intn(1 << 16)), Kind: k})
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, tr); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return got.Name == tr.Name && reflect.DeepEqual(got.Events, tr.Events)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTextRoundTrip(t *testing.T) {
	tr := testTrace()
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || !reflect.DeepEqual(got.Events, tr.Events) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got.Events, tr.Events)
	}
}

func TestReadTextSkipsCommentsAndBlanks(t *testing.T) {
	in := "# name: x\n\n# a comment\nr 0x10 4 0\n\nw 0x20 8 2\n"
	got, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "x" || got.Len() != 2 {
		t.Fatalf("name=%q len=%d", got.Name, got.Len())
	}
	if got.Events[1] != (Event{Addr: 0x20, Size: 8, Gap: 2, Kind: Write}) {
		t.Fatalf("second event = %+v", got.Events[1])
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := []string{
		"r 0x10 4",         // missing field
		"q 0x10 4 0",       // bad kind
		"r zz 4 0",         // bad address
		"r 0x10 zz 0",      // bad size
		"r 0x10 4 zz",      // bad gap
		"r 0x10 4 0 extra", // extra field
		"r 0x10 999 0",     // size out of uint8
		"r 0x10 4 70000",   // gap out of uint16
	}
	for _, in := range cases {
		if _, err := ReadText(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

func TestCompressedRoundTrip(t *testing.T) {
	tr := testTrace()
	var buf bytes.Buffer
	if err := WriteBinaryCompressed(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinaryCompressed(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || !reflect.DeepEqual(got.Events, tr.Events) {
		t.Fatal("compressed round trip mismatch")
	}
}

func TestCompressedSmaller(t *testing.T) {
	tr := &Trace{Name: "seq"}
	for i := 0; i < 50000; i++ {
		tr.Append(Event{Addr: uint32(0x1000 + 8*i), Size: 8, Kind: Write})
	}
	var plain, comp bytes.Buffer
	if err := WriteBinary(&plain, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinaryCompressed(&comp, tr); err != nil {
		t.Fatal(err)
	}
	if comp.Len() >= plain.Len() {
		t.Errorf("compressed %d >= plain %d", comp.Len(), plain.Len())
	}
}

func TestCompressedBadMagic(t *testing.T) {
	if _, err := ReadBinaryCompressed(strings.NewReader("XXXXdata")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestReadAuto(t *testing.T) {
	tr := testTrace()
	var bin, comp, txt bytes.Buffer
	if err := WriteBinary(&bin, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinaryCompressed(&comp, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteText(&txt, tr); err != nil {
		t.Fatal(err)
	}
	for i, buf := range []*bytes.Buffer{&bin, &comp, &txt} {
		got, err := ReadAuto(buf)
		if err != nil {
			t.Fatalf("format %d: %v", i, err)
		}
		if got.Len() != tr.Len() {
			t.Errorf("format %d: %d events", i, got.Len())
		}
	}
	if _, err := ReadAuto(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
}
