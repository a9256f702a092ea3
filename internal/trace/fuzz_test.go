package trace

import (
	"bufio"
	"bytes"
	"testing"
)

// FuzzReadBinary: arbitrary byte streams must never panic the decoder —
// they either parse or return an error — and whatever parses must
// re-encode and re-parse identically.
func FuzzReadBinary(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteBinary(&seed, &Trace{Name: "seed", Events: []Event{
		{Addr: 0x100, Size: 4, Kind: Read, Gap: 3},
		{Addr: 0x108, Size: 8, Kind: Write},
	}}); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("CWT1"))
	f.Add([]byte{})
	f.Add([]byte("CWT1\x00\xff\xff\xff\xff\xff\xff"))
	// Truncated and bit-flipped variants of the valid seed.
	raw := seed.Bytes()
	f.Add(raw[:len(raw)-1])
	f.Add(raw[:5])
	for pos := 4; pos < len(raw); pos += 3 {
		flipped := bytes.Clone(raw)
		flipped[pos] ^= 1 << (pos % 8)
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteBinary(&out, tr); err != nil {
			// Decoded traces always have power-of-two sizes, so encoding
			// must succeed.
			t.Fatalf("re-encode of decoded trace failed: %v", err)
		}
		tr2, err := ReadBinary(&out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if tr2.Name != tr.Name || len(tr2.Events) != len(tr.Events) {
			t.Fatal("round trip drifted")
		}
		for i := range tr.Events {
			if tr.Events[i] != tr2.Events[i] {
				t.Fatalf("event %d drifted: %+v vs %+v", i, tr.Events[i], tr2.Events[i])
			}
		}
	})
}

// FuzzReadBinaryLenient: lenient decoding must never panic on arbitrary
// input, must never fail once the header is good, must deliver exactly
// the events it counts, and must decode any input strict decoding
// accepts to the same events with no damage reported.
func FuzzReadBinaryLenient(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteBinary(&seed, &Trace{Name: "seed", Events: []Event{
		{Addr: 0x2000, Size: 4, Kind: Write, Gap: 1},
		{Addr: 0x2004, Size: 4, Kind: Read},
		{Addr: 0x80000000, Size: 8, Kind: Write, Gap: 0xffff},
	}}); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	// Truncations and single-bit flips of a valid stream.
	raw := seed.Bytes()
	f.Add(raw[:len(raw)-2])
	f.Add(raw[:len(raw)/2])
	for _, pos := range []int{6, 8, len(raw) - 1} {
		flipped := bytes.Clone(raw)
		flipped[pos] ^= 0x40
		f.Add(flipped)
	}
	f.Add([]byte("CWT1"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		ltr, ds, lerr := ReadBinaryLenient(bytes.NewReader(data))
		if lerr != nil {
			// Only an unreadable header may fail a lenient decode.
			if _, herr := decodeHeader(bufio.NewReader(bytes.NewReader(data)), &Trace{}); herr == nil {
				t.Fatalf("lenient decode failed past a good header: %v", lerr)
			}
			return
		}
		if ds.Decoded != uint64(len(ltr.Events)) {
			t.Fatalf("lenient stats count %d but trace has %d", ds.Decoded, len(ltr.Events))
		}
		strict, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		if ds.Damaged() || ltr.Name != strict.Name || len(ltr.Events) != len(strict.Events) {
			t.Fatalf("lenient degraded an intact stream: stats=%v", ds)
		}
		for i := range strict.Events {
			if ltr.Events[i] != strict.Events[i] {
				t.Fatalf("event %d drifted: %+v vs %+v", i, ltr.Events[i], strict.Events[i])
			}
		}
	})
}

// FuzzReadText: arbitrary text must never panic the text parser.
func FuzzReadText(f *testing.F) {
	f.Add("# name: x\nr 0x10 4 0\nw 0x20 8 1\n")
	f.Add("")
	f.Add("r")
	f.Add("r 0x10 4 0 5")
	f.Add("w 0xffffffff 255 65535\n")
	f.Fuzz(func(t *testing.T, s string) {
		tr, err := ReadText(bytes.NewReader([]byte(s)))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteText(&out, tr); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
	})
}

// FuzzReadAuto: format sniffing must never panic.
func FuzzReadAuto(f *testing.F) {
	f.Add([]byte("CWT1"))
	f.Add([]byte("CWTZ"))
	f.Add([]byte("r 0x10 4 0"))
	f.Add([]byte{0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = ReadAuto(bytes.NewReader(data))
	})
}
