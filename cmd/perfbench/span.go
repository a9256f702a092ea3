package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the boundary. Counts sit next to the span so per-layer
// ratios are taken where the work happened.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a root span
	Name   string  `json:"name"`
	Req    string  `json:"req,omitempty"` // shared by the spans of one serve job
	Start  float64 `json:"start_s"`       // seconds since the tracer started
	End    float64 `json:"end_s"`
	Events int64   `json:"events,omitempty"`
	Bytes  int64   `json:"bytes,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a no-op that does not read the
// clock, so end-to-end runs record nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 when untraced).
func (t *tracer) begin(name string, parent int, req string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: now})
	return id
}

// end closes span id and attaches its work counts.
func (t *tracer) end(id int, events, bytes int64) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End, s.Events, s.Bytes = now, events, bytes
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTime is a span's duration minus the part of it covered by its
// children. Children may overlap (the serve clients run concurrently),
// so their intervals are merged before they are subtracted.
func selfTime(spans []span, id int) float64 {
	type iv struct{ lo, hi float64 }
	var kids []iv
	for _, s := range spans {
		if s.Parent == id {
			kids = append(kids, iv{s.Start, s.End})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].lo < kids[j].lo })
	covered := 0.0
	var cur iv
	open := false
	for _, k := range kids {
		switch {
		case !open:
			cur, open = k, true
		case k.lo <= cur.hi:
			if k.hi > cur.hi {
				cur.hi = k.hi
			}
		default:
			covered += cur.hi - cur.lo
			cur = k
		}
	}
	if open {
		covered += cur.hi - cur.lo
	}
	return spans[id].dur() - covered
}

// byName sums the duration, events and bytes of every span called
// name.
func byName(spans []span, name string) (seconds float64, events, bytes int64, n int) {
	for _, s := range spans {
		if s.Name == name {
			seconds += s.dur()
			events += s.Events
			bytes += s.Bytes
			n++
		}
	}
	return seconds, events, bytes, n
}
