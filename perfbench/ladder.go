package main

import (
	"bytes"
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"approxobj"
	"approxobj/expose"
	"approxobj/internal/core"
	"approxobj/internal/histogram"
	"approxobj/internal/prim"
	"approxobj/internal/shard"
	"approxobj/internal/snapshot"
)

// The ladder replays a workload's op stream on one goroutine against each
// layer in turn, from a raw sync/atomic word up to the registry getter
// plus a pooled Do, so the difference between adjacent rungs is the cost
// of one layer. Each cell is timed over ladderSamples batches and
// reports the median and quartiles of ns/op, plus steps/op and
// allocs/op over all its batches.

const (
	ladderSamples = 9
	writeBatch    = 4096
	readBatch     = 512
	callBatch     = 2048 // per-call timed cells (acquire, release, flush)
)

type cell struct {
	rung, kind, op string
	q1, med, q3    float64 // ns/op
	steps, allocs  float64 // per op
	samples        int
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func quartiles(xs []float64) (q1, med, q3 float64) {
	sort.Float64s(xs)
	at := func(q float64) float64 {
		pos := q * float64(len(xs)-1)
		i := int(pos)
		if i+1 >= len(xs) {
			return xs[len(xs)-1]
		}
		return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
	}
	return at(0.25), at(0.5), at(0.75)
}

// ladder accumulates the cells of one workload's ladder.
type ladder struct {
	b     *bench
	cells []cell
	vals  [numKinds][]uint64 // the stream's mutation values, per kind
}

func newLadder(b *bench) *ladder {
	l := &ladder{b: b}
	for _, s := range b.streams {
		for _, o := range s {
			if !o.read {
				k := b.specs[o.obj].kind
				l.vals[k] = append(l.vals[k], o.val)
			}
		}
	}
	for k := range l.vals {
		if len(l.vals[k]) == 0 {
			l.vals[k] = []uint64{1}
		}
	}
	return l
}

// batch times ladderSamples batches of n calls of fn (after a warm-up)
// and records the cell. steps, when non-nil, reads the cell's step count.
func (l *ladder) batch(rung, k, opName string, n int, fn func(i int), steps func() uint64) cell {
	for i := range n / 4 {
		fn(i)
	}
	var s0 uint64
	if steps != nil {
		s0 = steps()
	}
	m0 := mallocs()
	xs := make([]float64, ladderSamples)
	for s := range xs {
		t0 := now()
		for i := range n {
			fn(s*n + i)
		}
		xs[s] = float64(now()-t0) / float64(n)
	}
	c := cell{rung: rung, kind: k, op: opName, samples: len(xs)}
	c.allocs = float64(mallocs()-m0) / float64(len(xs)*n)
	if steps != nil {
		c.steps = float64(steps()-s0) / float64(len(xs)*n)
	}
	c.q1, c.med, c.q3 = quartiles(xs)
	l.cells = append(l.cells, c)
	return c
}

// perCall times every call of fn individually (for calls that cannot be
// batched, like an acquire that must be released) and records the cell;
// each sample includes one clock read.
func (l *ladder) perCall(rung, k, opName string, fn func(i int) (a, b int64)) cell {
	var rec recorder
	m0 := mallocs()
	for i := range ladderSamples * callBatch {
		a, b := fn(i)
		rec.add(time.Duration(b - a))
	}
	c := cell{rung: rung, kind: k, op: opName, samples: int(rec.n),
		q1: rec.quantile(0.25), med: rec.quantile(0.5), q3: rec.quantile(0.75)}
	c.allocs = float64(mallocs()-m0) / float64(rec.n)
	l.cells = append(l.cells, c)
	return c
}

// spec returns the workload's base spec for kind k (uncached, cumulative).
func (l *ladder) spec(k kind) objSpec {
	for _, s := range l.b.specs {
		if s.kind == k {
			s.cached, s.windowed = false, false
			return s
		}
	}
	panic("workload without kind " + k.String())
}

// run builds and measures every rung and returns the per-layer metrics
// the ladder supplies.
func (l *ladder) run() (map[string]float64, error) {
	m := map[string]float64{}
	b := l.b
	for k := range numKinds {
		vals := l.vals[k]
		v := func(i int) uint64 { return vals[i%len(vals)] }
		x := v // the value a public write carries: histogram values come from the table
		if k == kHist {
			x = func(i int) uint64 { return b.table[v(i)] }
		}
		kn := k.String()
		spec := l.spec(k)
		kc := spec.acc.K()
		if spec.acc.IsExact() {
			kc = 1
		}
		S, B := spec.shards, spec.batch

		// Rung 0: a raw sync/atomic word (or small vector).
		var word atomic.Uint64
		var vec [65]atomic.Uint64
		buf := make([]uint64, 0, 64)
		var run uint64
		switch k {
		case kCounter:
			m["prim.atomic_floor_ns"] = l.batch("atomic", kn, "write", writeBatch, func(int) { word.Add(1) }, nil).med
			l.batch("atomic", kn, "read", readBatch, func(int) { word.Load() }, nil)
		case kMaxReg:
			l.batch("atomic", kn, "write", writeBatch, func(i int) {
				x := v(i)
				for cur := word.Load(); x > cur && !word.CompareAndSwap(cur, x); cur = word.Load() {
				}
			}, nil)
			l.batch("atomic", kn, "read", readBatch, func(int) { word.Load() }, nil)
		case kSnapshot:
			l.batch("atomic", kn, "write", writeBatch, func(i int) { run += v(i); vec[0].Store(run) }, nil)
			l.batch("atomic", kn, "read", readBatch, func(int) {
				buf = buf[:0]
				for c := range procs {
					buf = append(buf, vec[c].Load())
				}
			}, nil)
		case kHist:
			l.batch("atomic", kn, "write", writeBatch, func(i int) { vec[bits.Len64(b.table[v(i)])].Add(1) }, nil)
			l.batch("atomic", kn, "read", readBatch, func(int) {
				buf = buf[:0]
				for j := range vec {
					buf = append(buf, vec[j].Load())
				}
			}, nil)
		}
		if k == kCounter {
			f := prim.NewFactory(procs)
			r, p := f.Reg(), f.Proc(0)
			m["prim.write_ns"] = l.batch("prim", "reg", "write", writeBatch, func(i int) { r.Write(p, uint64(i)) }, p.Steps).med
			m["prim.read_ns"] = l.batch("prim", "reg", "read", readBatch, func(int) { r.Read(p) }, p.Steps).med
		}

		// Rung 1: the backend algorithm alone, one shard's worth.
		f := prim.NewFactory(procs)
		p0, p1 := f.Proc(0), f.Proc(1)
		var bw func(i int)
		var br func()
		switch k {
		case kCounter:
			c, err := core.NewMultCounter(f, kc)
			if err != nil {
				return nil, err
			}
			hw, hr := c.Handle(p0), c.Handle(p1)
			bw, br = func(int) { hw.Inc() }, func() { hr.Read() }
		case kMaxReg:
			r, err := core.NewKMultMaxReg(f, valueBound, kc)
			if err != nil {
				return nil, err
			}
			bw, br = func(i int) { r.Write(p0, v(i)) }, func() { r.Read(p1) }
		case kSnapshot:
			s, err := snapshot.New(f)
			if err != nil {
				return nil, err
			}
			hw, hr := s.Handle(p0), s.Handle(p1)
			run = 0
			bw, br = func(i int) { run += v(i); hw.Update(run) }, func() { buf = hr.ScanInto(buf) }
		case kHist:
			bk, err := histogram.NewBuckets(kc, valueBound)
			if err != nil {
				return nil, err
			}
			vv, err := histogram.NewVector(f, bk.N())
			if err != nil {
				return nil, err
			}
			hw, hr := vv.HistHandle(p0), vv.HistHandle(p1)
			bw, br = func(i int) { hw.AddN(bk.Index(b.table[v(i)]), 1) }, func() { buf = hr.ReadInto(buf) }
		}
		c := l.batch("backend", kn, "write", writeBatch, bw, p0.Steps)
		m["backend.write_ns."+kn], m["backend.steps_per_write."+kn] = c.med, c.steps
		c = l.batch("backend", kn, "read", readBatch, func(int) { br() }, p1.Steps)
		m["backend.read_ns."+kn], m["backend.steps_per_read."+kn] = c.med, c.steps

		// Rung 2: the shard plane — writes at the workload's S/B, reads
		// folding 8 uncached shards.
		for _, cfg := range []struct {
			op     string
			shards int
			batch  int
		}{{"write", S, B}, {"read", 8, 1}} {
			w, r, steps, closeFn, err := shardHandles(k, kc, cfg.shards, cfg.batch, b.table)
			if err != nil {
				return nil, err
			}
			if cfg.op == "write" {
				run = 0
				m["shard.write_ns."+kn] = l.batch("shard", kn, fmt.Sprintf("write S=%d B=%d", cfg.shards, cfg.batch), writeBatch,
					func(i int) { run += v(i); w(run, v(i)) }, steps).med
			} else {
				for i := range 64 {
					w(uint64(i+1), v(i))
				}
				m["shard.read_ns."+kn] = l.batch("shard", kn, "read S=8 B=1", readBatch, func(int) { buf = r(buf) }, nil).med
			}
			closeFn()
		}
		if k == kCounter {
			sc, err := shard.New(procs, kc, shard.Shards(S), shard.Batch(B), shard.WithBackend(shard.MultBackend()))
			if err != nil {
				return nil, err
			}
			h := sc.Handle(0)
			m["shard.flush_ns"] = l.perCall("shard", kn, fmt.Sprintf("flush after %d incs", B-1), func(int) (int64, int64) {
				for range B - 1 {
					h.Inc()
				}
				a := now()
				h.Flush()
				return a, now()
			}).med
			sc.Close()
		}

		// Rungs 3-5: the public handle, the pooled Do, and the same object
		// behind a read cache or a window.
		pub, err := newPublic(spec)
		if err != nil {
			return nil, err
		}
		run = 0
		m["handle.write_ns."+kn] = l.batch("handle", kn, "write", writeBatch, func(i int) { run += v(i); pub.write(0, run, x(i)) }, pub.steps).med
		m["handle.read_ns."+kn] = l.batch("handle", kn, pub.readName, readBatch, func(int) { pub.read(1) }, nil).med
		l.batch("pooled", kn, "Do(write)", writeBatch, func(i int) { run += v(i); pub.pooled(run, x(i)) }, nil)
		if k == kHist {
			q := l.batch("histogram", kn, "Quantile(0.5)", readBatch, func(int) { pub.handles[1].h.Quantile(0.5) }, nil)
			n := l.batch("histogram", kn, "Count", readBatch, func(int) { pub.handles[1].h.Count() }, nil)
			m["histogram.query_ns"] = q.med - n.med
		}
		if k == kCounter {
			m["pool.acquire_ns"] = l.perCall("pool", kn, "Acquire", func(int) (int64, int64) {
				a := now()
				h, rel := pub.c.Acquire()
				z := now()
				h.Inc()
				rel()
				return a, z
			}).med
			rc := l.perCall("pool", kn, "release", func(int) (int64, int64) {
				h, rel := pub.c.Acquire()
				h.Inc()
				a := now()
				rel()
				return a, now()
			})
			m["pool.release_ns"] = rc.med
			m["pool.allocs_per_lease"] = rc.allocs

			for _, variant := range []struct {
				name   string
				metric string
				mod    func(*objSpec)
			}{
				{"readcache", "readcache.read_ns", func(s *objSpec) { s.cached = true }},
				{"window", "window.read_ns", func(s *objSpec) { s.windowed = true }},
			} {
				vs := spec
				variant.mod(&vs)
				vp, err := newPublic(vs)
				if err != nil {
					return nil, err
				}
				for i := range 64 {
					vp.write(0, 0, x(i))
				}
				m[variant.metric] = l.batch(variant.name, kn, "read", readBatch, func(int) { vp.read(1) }, nil).med
				vp.close()
			}
		}
		pub.close()
	}

	// Rungs 6-7: the registry getter (alone and followed by a pooled Do)
	// over the stream's names, and one scrape of the traced registry.
	names := b.streams[0]
	get := func(i int) error {
		o := b.objs[names[i%len(names)].obj]
		var err error
		switch o.spec.kind {
		case kCounter:
			_, err = b.reg.Counter(o.spec.name, o.opts...)
		case kMaxReg:
			_, err = b.reg.MaxRegister(o.spec.name, o.opts...)
		case kSnapshot:
			_, err = b.reg.SnapshotObject(o.spec.name, o.opts...)
		case kHist:
			_, err = b.reg.HistogramObject(o.spec.name, o.opts...)
		}
		return err
	}
	var getErr error
	c := l.batch("registry", "all", "get", writeBatch, func(i int) {
		if err := get(i); err != nil {
			getErr = err
		}
	}, nil)
	if getErr != nil {
		return nil, getErr
	}
	m["registry.get_ns"], m["registry.get_allocs"] = c.med, c.allocs
	var counters []*obj
	for _, op := range names {
		if o := b.objs[op.obj]; o.spec.kind == kCounter {
			counters = append(counters, o)
		}
	}
	l.batch("registry", "counter", "get+Do(write)", writeBatch, func(i int) {
		o := counters[i%len(counters)]
		if c, err := b.reg.Counter(o.spec.name, o.opts...); err == nil {
			c.Do(func(h approxobj.CounterHandle) { h.Inc() })
		}
	}, nil)

	var out bytes.Buffer
	objects := float64(len(b.objs))
	snap := l.batch("scrape", "all", "Registry.Snapshot", 1, func(int) { b.reg.Snapshot() }, nil)
	var renderErr error
	render := l.batch("scrape", "all", "WriteRegistry", 1, func(int) {
		out.Reset()
		if err := expose.WriteRegistry(&out, b.reg); err != nil {
			renderErr = err
		}
	}, nil)
	if renderErr != nil {
		return nil, renderErr
	}
	m["registry.snapshot_ns_per_object"] = snap.med / objects
	m["expose.render_ns_per_object"] = (render.med - snap.med) / objects
	m["expose.bytes_per_object"] = float64(out.Len()) / objects
	return m, nil
}

// shardHandles builds a shard plane of kind k and returns a writer (slot
// 0: the running value for snapshots, the stream value otherwise), a
// reader (slot 1), the writer's step count and a close function.
func shardHandles(k kind, kc uint64, shards, batch int, table []uint64) (w func(run, v uint64), r func([]uint64) []uint64, steps func() uint64, closeFn func(), err error) {
	switch k {
	case kCounter:
		c, err := shard.New(procs, kc, shard.Shards(shards), shard.Batch(batch), shard.WithBackend(shard.MultBackend()))
		if err != nil {
			return nil, nil, nil, nil, err
		}
		hw, hr := c.Handle(0), c.Handle(1)
		return func(uint64, uint64) { hw.Inc() }, func(b []uint64) []uint64 { hr.Read(); return b }, hw.Steps, c.Close, nil
	case kMaxReg:
		c, err := shard.NewMaxReg(procs, kc, shard.MaxRegShards(shards), shard.MaxRegBatch(batch), shard.WithMaxRegBackend(shard.MultBoundedMaxBackend(valueBound)))
		if err != nil {
			return nil, nil, nil, nil, err
		}
		hw, hr := c.Handle(0), c.Handle(1)
		return func(_, v uint64) { hw.Write(v) }, func(b []uint64) []uint64 { hr.Read(); return b }, hw.Steps, c.Close, nil
	case kSnapshot:
		c, err := shard.NewSnapshot(procs, 1, shard.SnapshotShards(shards), shard.SnapshotBatch(batch), shard.WithSnapshotBackend(shard.ExactSnapshotBackend()))
		if err != nil {
			return nil, nil, nil, nil, err
		}
		hw, hr := c.Handle(0), c.Handle(1)
		return func(run, _ uint64) { hw.Update(run) }, hr.ScanInto, hw.Steps, c.Close, nil
	default:
		bk, err := histogram.NewBuckets(kc, valueBound)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		c, err := shard.NewHistogram(procs, kc, bk.N(), shard.HistShards(shards), shard.HistBatch(batch))
		if err != nil {
			return nil, nil, nil, nil, err
		}
		hw, hr := c.Handle(0), c.Handle(1)
		return func(_, v uint64) { hw.AddN(bk.Index(table[v]), 1) }, hr.BucketsInto, hw.Steps, c.Close, nil
	}
}

// public is one object built through the public constructors (no
// registry), with a held handle per slot.
type public struct {
	kind     kind
	c        *approxobj.Counter
	m        *approxobj.MaxRegister
	s        *approxobj.Snapshot
	h        *approxobj.Histogram
	handles  [procs]heldHandles
	buf      []uint64
	readName string
}

func newPublic(s objSpec) (*public, error) {
	p := &public{kind: s.kind, readName: "Read"}
	opts := s.options(nil)
	var err error
	switch s.kind {
	case kCounter:
		p.c, err = approxobj.NewCounter(opts...)
	case kMaxReg:
		p.m, err = approxobj.NewMaxRegister(opts...)
	case kSnapshot:
		p.s, err = approxobj.NewSnapshot(opts...)
		p.readName = "ScanInto"
	case kHist:
		p.h, err = approxobj.NewHistogram(opts...)
		p.readName = "Quantile(0.99)"
	}
	if err != nil {
		return nil, err
	}
	for i := range p.handles {
		hh := &p.handles[i]
		switch s.kind {
		case kCounter:
			hh.c = p.c.Handle(i)
		case kMaxReg:
			hh.m = p.m.Handle(i)
		case kSnapshot:
			hh.s = p.s.Handle(i)
		case kHist:
			hh.h = p.h.Handle(i)
		}
	}
	return p, nil
}

// write mutates through slot's held handle: run is the snapshot's running
// value, x the max-register or histogram value.
func (p *public) write(slot int, run, x uint64) {
	hh := &p.handles[slot]
	switch p.kind {
	case kCounter:
		hh.c.Inc()
	case kMaxReg:
		hh.m.Write(x)
	case kSnapshot:
		hh.s.Update(run)
	case kHist:
		hh.h.Observe(x)
	}
}

func (p *public) read(slot int) {
	hh := &p.handles[slot]
	switch p.kind {
	case kCounter:
		hh.c.Read()
	case kMaxReg:
		hh.m.Read()
	case kSnapshot:
		p.buf = hh.s.ScanInto(p.buf)
	case kHist:
		hh.h.Quantile(0.99)
	}
}

func (p *public) pooled(run, x uint64) {
	switch p.kind {
	case kCounter:
		p.c.Do(func(h approxobj.CounterHandle) { h.Inc() })
	case kMaxReg:
		p.m.Do(func(h approxobj.MaxRegisterHandle) { h.Write(x) })
	case kSnapshot:
		p.s.Do(func(h approxobj.SnapshotHandle) { h.Update(run) })
	case kHist:
		p.h.Do(func(h approxobj.HistogramHandle) { h.Observe(x) })
	}
}

// steps is the slot-0 writer handle's step count.
func (p *public) steps() uint64 {
	hh := &p.handles[0]
	switch p.kind {
	case kCounter:
		return hh.c.Steps()
	case kMaxReg:
		return hh.m.Steps()
	case kSnapshot:
		return hh.s.Steps()
	}
	return hh.h.Steps()
}

func (p *public) close() {
	switch p.kind {
	case kCounter:
		p.c.Close()
	case kMaxReg:
		p.m.Close()
	case kSnapshot:
		p.s.Close()
	case kHist:
		p.h.Close()
	}
}

// writeLadder writes the ladder's cells as an aligned table.
func writeLadder(path string, workload string, cells []cell) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# ladder for workload %s: ns/op median [q1, q3] over the samples (batches, or single calls), steps/op, allocs/op\n", workload)
	fmt.Fprintf(&sb, "%-10s %-10s %-24s %10s %10s %10s %9s %9s %8s\n", "rung", "kind", "op", "median", "q1", "q3", "steps/op", "allocs/op", "samples")
	for _, c := range cells {
		fmt.Fprintf(&sb, "%-10s %-10s %-24s %10.1f %10.1f %10.1f %9.3f %9.3f %8d\n", c.rung, c.kind, c.op, c.med, c.q1, c.q3, c.steps, c.allocs, c.samples)
	}
	fmt.Fprint(os.Stderr, sb.String())
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}
