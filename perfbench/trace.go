package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spanName names a layer boundary the traced run records a span at.
type spanName uint8

const (
	spOp       spanName = iota // root of one user op
	spScrape                   // root of one scrape
	spGetter                   // typed registry getter
	spAcquire                  // pool Acquire
	spRelease                  // release of a pooled handle (flushes its buffer)
	spSnapshot                 // Registry.Snapshot
	spRender                   // expose.WriteRegistry
	spWrite                    // + kind: one mutation through a handle
	spRead     = spWrite + spanName(numKinds)
	numSpans   = spRead + spanName(numKinds)
)

func (s spanName) String() string {
	switch {
	case s >= spRead:
		return "read." + kind(s-spRead).String()
	case s >= spWrite:
		return "write." + kind(s-spWrite).String()
	}
	return [...]string{"op", "scrape", "getter", "acquire", "release", "snapshot", "render"}[s]
}

type span struct {
	op         uint32
	name       spanName
	root       bool
	start, dur int64 // ns since the tracer's base
	self       int64
}

const spanRing = 1 << 14

// tracer records one goroutine's spans: the most recent spanRing spans
// in a preallocated ring, written out at exit, and every span's self time
// (its duration minus its children's) in a per-name recorder. Spans of
// one op share an id. Its methods are no-ops on a nil tracer.
type tracer struct {
	base int64
	id   uint32
	n    uint64
	ring []span
	self [numSpans]recorder
}

func newTracer(base int64) *tracer {
	return &tracer{base: base, ring: make([]span, spanRing)}
}

// leaf records a span without children and returns its duration.
func (t *tracer) leaf(name spanName, a, b int64) time.Duration {
	if t == nil {
		return 0
	}
	d := time.Duration(b - a)
	t.record(span{op: t.id, name: name, start: a - t.base, dur: int64(d), self: int64(d)})
	t.self[name].add(d)
	return d
}

// root records the op's root span, whose children took child in total,
// and starts the next op.
func (t *tracer) root(name spanName, a, b int64, child time.Duration) {
	if t == nil {
		return
	}
	d := time.Duration(b - a)
	t.record(span{op: t.id, name: name, root: true, start: a - t.base, dur: int64(d), self: int64(d - child)})
	t.self[name].add(d - child)
	t.id++
}

func (t *tracer) record(s span) {
	t.ring[t.n%spanRing] = s
	t.n++
}

// writeSpans writes the tracers' retained spans as JSON lines.
func writeSpans(path string, tracers []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for g, t := range tracers {
		first := uint64(0)
		if t.n > spanRing {
			first = t.n - spanRing
		}
		for i := first; i < t.n; i++ {
			s := t.ring[i%spanRing]
			fmt.Fprintf(w, `{"goroutine":%d,"op":%d,"span":%q,"root":%t,"start_ns":%d,"dur_ns":%d,"self_ns":%d}`+"\n",
				g, s.op, s.name, s.root, s.start, s.dur, s.self)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
