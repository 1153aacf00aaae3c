package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"approxobj"
	"approxobj/expose"
)

// workloads lists the benchmark's workloads; see README.md for why each
// was chosen.
var workloads = []string{"ingest", "dashboard", "scrape"}

const (
	readShare   = 0.01 // share of reads in the pooled-writer streams
	ingestNames = 256
	scrapeNames = 256
	// sideScrapeEvery is the interval of the operator's side scrape in
	// ingest and dashboard. Operators scrape far less often (Prometheus
	// defaults to once a minute); this is the lowest rate that still gives
	// scrape_p50_ms a steady median, 200 scrapes in a 20-second run. The
	// scraping goroutine's time in it is left out of ops_per_s.
	sideScrapeEvery = int64(100 * time.Millisecond)
)

// bench is one workload instance: its objects, registry, generated op
// streams and exact tallies.
type bench struct {
	name    string
	specs   []objSpec
	objs    []*obj
	byName  map[string]int
	reg     *approxobj.Registry
	hist    *history
	table   []uint64
	streams [procs][]op
	held    [procs]heldHandles // dashboard: slot 0 writes, slot 1 reads
	bounds  []approxobj.Bounds
}

type heldHandles struct {
	c approxobj.CounterHandle
	m approxobj.MaxRegisterHandle
	s approxobj.SnapshotHandle
	h approxobj.HistogramHandle
}

// newBench generates the workload's object set and op streams from seed.
// Nothing is built yet; see build.
func newBench(name string, seed int64) (*bench, error) {
	rng := rand.New(rand.NewSource(seed))
	b := &bench{name: name, table: histTable(rng)}
	switch name {
	case "ingest":
		// Kinds follow the Zipf rank in a fixed pattern, so every seed has
		// the same kind at each popularity rank: 50% counters, 20%
		// histograms, 20% max registers, 10% snapshots.
		pattern := [...]kind{kCounter, kHist, kCounter, kMaxReg, kCounter, kHist, kCounter, kMaxReg, kCounter, kSnapshot}
		for i := range ingestNames {
			k := pattern[i%len(pattern)]
			b.specs = append(b.specs, objSpec{name: fmt.Sprintf("ingest_%03d_%s", i, k), kind: k, acc: accuracyOf(k, 4), shards: 2, batch: 64})
		}
		for g := range b.streams {
			grng := rand.New(rand.NewSource(seed*7919 + int64(g) + 1))
			zipf := rand.NewZipf(grng, 1.1, 1, ingestNames-1)
			b.streams[g] = b.pooledStream(grng, func() int { return int(zipf.Uint64()) })
		}
	case "dashboard":
		for k := range numKinds {
			b.specs = append(b.specs, objSpec{name: "dashboard_" + k.String(), kind: k, acc: accuracyOf(k, 2), shards: 8, batch: 1})
		}
		mix := [numKinds]float64{0.4, 0.2, 0.1, 0.3} // counter, maxreg, snapshot, histogram
		ops := make([]op, 1<<opChunkBits)
		for i := range ops {
			k, x := kCounter, rng.Float64()
			for k < numKinds-1 && x >= mix[k] {
				x -= mix[k]
				k++
			}
			ops[i] = op{obj: uint16(k), val: opValue(rng, k)}
		}
		b.streams[0] = ops
	case "scrape":
		// The composition is fixed; the seed varies only the op stream.
		// Each kind gets a quarter of the objects; half of each kind is
		// cached and a quarter windowed, independently.
		for i := range scrapeNames {
			k := kind(i % int(numKinds))
			b.specs = append(b.specs, objSpec{name: fmt.Sprintf("scrape_%04d_%s", i, k), kind: k, acc: accuracyOf(k, 4), shards: 2, batch: 1,
				cached: (i/4)%2 == 0, windowed: (i/8)%4 == 1})
		}
		b.streams[0] = b.pooledStream(rng, func() int { return rng.Intn(scrapeNames) })
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloads)
	}
	b.byName = make(map[string]int, len(b.specs))
	for i, s := range b.specs {
		b.byName[s.name] = i
	}
	for _, s := range b.specs {
		if s.cached || s.windowed {
			b.hist = newHistory(len(b.specs))
			break
		}
	}
	return b, nil
}

// accuracyOf is the accuracy of a kind's objects: Multiplicative(kc)
// counters, Multiplicative(2) max registers and histograms, exact
// snapshots.
func accuracyOf(k kind, kc uint64) approxobj.Accuracy {
	switch k {
	case kCounter:
		return approxobj.Multiplicative(kc)
	case kSnapshot:
		return approxobj.Exact()
	}
	return approxobj.Multiplicative(2)
}

func (b *bench) pooledStream(rng *rand.Rand, pick func() int) []op {
	ops := make([]op, 1<<opChunkBits)
	for i := range ops {
		j := pick()
		ops[i] = op{obj: uint16(j), read: rng.Float64() < readShare, val: opValue(rng, b.specs[j].kind)}
	}
	return ops
}

// build creates the registry, objects and handles, and performs the
// first read of every object and slot, which starts lazy state (pooled
// handles, snapshot handles, read-cache cells). tel, when non-nil, is
// attached to every object.
func (b *bench) build(tel *approxobj.Telemetry) error {
	b.reg = approxobj.NewRegistry()
	b.objs = make([]*obj, len(b.specs))
	b.bounds = make([]approxobj.Bounds, len(b.specs))
	for i, s := range b.specs {
		o := &obj{spec: s, opts: s.options(tel)}
		if err := o.register(b.reg); err != nil {
			return err
		}
		b.objs[i], b.bounds[i] = o, o.bounds()
	}
	b.reg.Snapshot()
	if b.name == "dashboard" {
		for slot := range b.held {
			hh := &b.held[slot]
			for _, o := range b.objs {
				switch o.spec.kind {
				case kCounter:
					hh.c = o.c.Handle(slot)
					hh.c.Read()
				case kMaxReg:
					hh.m = o.m.Handle(slot)
					hh.m.Read()
				case kSnapshot:
					hh.s = o.s.Handle(slot)
					hh.s.Scan()
				case kHist:
					hh.h = o.h.Handle(slot)
					hh.h.Count()
				}
			}
		}
		return nil
	}
	for _, o := range b.objs {
		o.primeSlots()
	}
	return nil
}

// primeSlots leases every pool slot at once and reads through it, so
// each slot's pooled handle exists before the timed phase.
func (o *obj) primeSlots() {
	var rel [procs]func()
	for i := range rel {
		switch o.spec.kind {
		case kCounter:
			h, r := o.c.Acquire()
			h.Read()
			rel[i] = r
		case kMaxReg:
			h, r := o.m.Acquire()
			h.Read()
			rel[i] = r
		case kSnapshot:
			h, r := o.s.Acquire()
			h.Scan()
			rel[i] = r
		case kHist:
			h, r := o.h.Acquire()
			h.Count()
			rel[i] = r
		}
	}
	for _, r := range rel {
		r()
	}
}

// steps sums the shared-memory steps of the user ops: the steps credited
// by released pooled handles (StepsRetired, the user-op share of
// ObjectSnapshot.Steps) plus the dashboard's held handles. The
// registry's own reads for scrapes are left out.
func (b *bench) steps() uint64 {
	var s uint64
	for _, o := range b.objs {
		switch o.spec.kind {
		case kCounter:
			s += o.c.StepsRetired()
		case kMaxReg:
			s += o.m.StepsRetired()
		case kSnapshot:
			s += o.s.StepsRetired()
		case kHist:
			s += o.h.StepsRetired()
		}
	}
	for _, hh := range b.held {
		if hh.c != nil {
			s += hh.c.Steps() + hh.m.Steps() + hh.s.Steps() + hh.h.Steps()
		}
	}
	return s
}

// worker is one load goroutine's state. Everything it records is its
// own until the goroutines are joined.
type worker struct {
	b      *bench
	id     int
	ck     checker
	wr, rd recorder
	sc     recorder
	ops    uint64
	end    int64
	tr     *tracer
	t0     int64       // when the run started; windows count from here
	win    []winRecord // per-window user ops and latencies

	buf       bytes.Buffer
	scan      []uint64
	view      *scrapeView
	pre, post []uint64
	last      int64      // when the last scrape started
	log       *scrapeLog // side scrapes awaiting their check; nil for none
	next      int64      // when the next side scrape is due
	sideNs    int64      // time spent in side scrapes
	checked   uint64     // scrapes checked during the run
}

// winLen is the length of the windows the run's throughput and write and
// read latencies are summarized over: each is reported as the median
// over the run's full windows, so a transient stall of the machine moves
// one window, not the result.
const winLen = int64(500 * time.Millisecond)

type winRecord struct {
	ops    uint64
	sideNs int64 // time spent in side scrapes inside the window
	wr, rd recorder
}

func (b *bench) newWorker(id int, tr *tracer, d time.Duration) *worker {
	w := &worker{b: b, id: id, tr: tr, view: newScrapeView(len(b.objs)),
		pre: make([]uint64, len(b.objs)), post: make([]uint64, len(b.objs)),
		win: make([]winRecord, int64(d)/winLen+1)}
	w.buf.Grow(256 * len(b.objs))
	w.scan = make([]uint64, procs)
	return w
}

// runResult is the outcome of one timed phase.
type runResult struct {
	workers []*worker
	elapsed time.Duration
	mallocs uint64
	gcs     uint32
	// checkMallocs is the share of mallocs spent checking scrapes during
	// the run, estimated after it; allocs_per_op leaves it out.
	checkMallocs float64
}

func (r *runResult) userOps() uint64 {
	var n uint64
	for _, w := range r.workers {
		n += w.ops
	}
	return n
}

// run drives the workload's load goroutines for d, closed loop, and
// returns once both have stopped and their logged scrapes are checked.
func (b *bench) run(d time.Duration, tracers [procs]*tracer) (*runResult, error) {
	res := &runResult{}
	for g := range procs {
		w := b.newWorker(g, tracers[g], d)
		if b.name == "ingest" && g == 0 || b.name == "dashboard" && g == 1 {
			var err error
			if w.log, err = newScrapeLog(); err != nil {
				return nil, err
			}
		}
		res.workers = append(res.workers, w)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0, gc0 := ms.Mallocs, ms.NumGC
	start := now()
	for _, w := range res.workers {
		w.t0, w.next = start, start
	}
	deadline := start + int64(d)
	var wg sync.WaitGroup
	for _, w := range res.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch {
			case b.name == "ingest":
				w.pooledLoop(deadline, true)
			case b.name == "scrape" && w.id == 0:
				w.pooledLoop(deadline, false)
			case b.name == "scrape":
				w.scrapeLoop(deadline)
			case w.id == 0:
				w.writeLoop(deadline)
			default:
				w.readLoop(deadline)
			}
			w.end = now()
		}()
	}
	wg.Wait()
	runtime.ReadMemStats(&ms)
	res.mallocs, res.gcs = ms.Mallocs-mallocs0, ms.NumGC-gc0
	for _, w := range res.workers {
		res.elapsed = max(res.elapsed, time.Duration(w.end-start))
	}
	for _, w := range res.workers {
		if w.checked > 0 {
			res.checkMallocs += float64(w.checked) * w.checkAllocs()
		}
	}
	b.hist.capture(b.objs, now())
	for _, w := range res.workers {
		if err := w.checkLogged(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// checkAllocs returns the allocations of one check of the worker's last
// scrape, which is still in its buffer. Every check of a body of the
// same shape allocates alike, so checked × this is what the run's
// checks allocated.
func (w *worker) checkAllocs() float64 {
	const reps = 8
	var ck checker
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	for range reps {
		w.b.checkScrape(&ck, w.buf.Bytes(), w.view, w.pre, w.post, w.last)
	}
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs-m0) / reps
}

// record adds one user op's latency to the run's and its window's
// recorders.
func (w *worker) record(read bool, t0, t1 int64) {
	d := time.Duration(t1 - t0)
	win := &w.win[w.winIndex(t1)]
	if read {
		w.rd.add(d)
		win.rd.add(d)
	} else {
		w.wr.add(d)
		win.wr.add(d)
	}
	win.ops++
	w.ops++
}

// winIndex returns the index of the window the time t falls in.
func (w *worker) winIndex(t int64) int {
	return min(int((t-w.t0)/winLen), len(w.win)-1)
}

// sideScrape takes the operator's periodic scrape when one is due at t
// and returns the time it ended, or t.
func (w *worker) sideScrape(t int64) int64 {
	if w.log == nil || t < w.next {
		return t
	}
	w.scrape()
	t1 := now()
	w.sideNs += t1 - t
	for a := t; a < t1; { // split the time over the windows it spans
		i := w.winIndex(a)
		b := t1
		if i < len(w.win)-1 {
			b = min(b, w.t0+int64(i+1)*winLen)
		}
		w.win[i].sideNs += b - a
		a = b
	}
	for w.next <= t1 {
		w.next += sideScrapeEvery
	}
	return t1
}

func (w *worker) pooledLoop(deadline int64, getter bool) {
	stream := w.b.streams[w.id]
	mask := len(stream) - 1
	for i, t := 0, now(); t < deadline; i++ {
		t = w.sideScrape(t)
		o := stream[i&mask]
		if o.read {
			t = w.pooledRead(int(o.obj))
		} else {
			t = w.pooledWrite(int(o.obj), o.val, getter)
		}
	}
}

func (w *worker) scrapeLoop(deadline int64) {
	for now() < deadline {
		w.scrape()
	}
}

// scrape renders the whole registry once into the reused buffer, timed,
// and checks the result.
func (w *worker) scrape() {
	b := w.b
	b.loadTallies(w.pre, false)
	b.hist.capture(b.objs, now())
	w.buf.Reset()
	var err error
	t0 := now()
	if w.tr != nil {
		_ = b.reg.Snapshot()
		t1 := now()
		err = expose.WriteRegistry(&w.buf, b.reg)
		t2 := now()
		w.tr.root(spScrape, t0, t2, w.tr.leaf(spSnapshot, t0, t1)+w.tr.leaf(spRender, t1, t2))
		w.sc.add(time.Duration(t2 - t0))
	} else {
		err = expose.WriteRegistry(&w.buf, b.reg)
		w.sc.add(time.Duration(now() - t0))
	}
	b.loadTallies(w.post, true)
	w.last = t0
	if err != nil {
		w.ck.check(false, "%s: WriteRegistry: %v", b.name, err)
		return
	}
	if w.log != nil && w.log.add(t0, w.pre, w.post, w.buf.Bytes()) {
		return
	}
	b.checkScrape(&w.ck, w.buf.Bytes(), w.view, w.pre, w.post, t0)
	w.checked++
}

// checkLogged checks the scrapes the worker logged during the run and
// releases the log.
func (w *worker) checkLogged() error {
	if w.log == nil {
		return nil
	}
	w.log.each(w.pre, w.post, func(t0 int64, body []byte) {
		w.b.checkScrape(&w.ck, body, w.view, w.pre, w.post, t0)
	})
	return w.log.close()
}

// pooled is what every pooled object offers: Acquire plus release,
// which the traced run calls in place of Do to time each part.
type pooled[H any] interface {
	Acquire() (H, func())
}

// getter is a typed registry getter, such as Registry.Counter.
type getter[T any] func(name string, opts ...approxobj.Option) (T, error)

// callTraced runs f on a pooled handle of obj, after looking obj up
// again through get when get is non-nil: Acquire, f and release, with a
// span around each call and around the getter, which started at t0. It
// returns the children's total duration. Only the traced run uses it;
// the untraced run calls Do directly (doWrite, doRead).
func callTraced[H any, T pooled[H]](w *worker, t0 int64, obj T, get getter[T], o *obj, sp spanName, f func(H)) (child time.Duration) {
	tr := w.tr
	if get != nil {
		var err error
		obj, err = get(o.spec.name, o.opts...)
		child = tr.leaf(spGetter, t0, now())
		if err != nil {
			w.getterFailed(o, err)
			return child
		}
	}
	a := now()
	h, rel := obj.Acquire()
	child += tr.leaf(spAcquire, a, now())
	a = now()
	f(h)
	child += tr.leaf(sp, a, now())
	a = now()
	rel()
	return child + tr.leaf(spRelease, a, now())
}

// getterIf returns get when on, else nil.
func getterIf[T any](on bool, get getter[T]) getter[T] {
	if on {
		return get
	}
	return nil
}

func (w *worker) getterFailed(o *obj, err error) {
	w.ck.check(false, "%s: registry getter for %s: %v", w.b.name, o.spec.name, err)
}

// pooledWrite performs one mutation of object j through a pooled Do,
// preceded by the typed registry getter when withGetter is set, and
// returns the time the operation ended. The writer's lane records the
// mutation as issued before the call and done after it.
func (w *worker) pooledWrite(j int, v uint64, withGetter bool) int64 {
	o := w.b.objs[j]
	l := &o.lanes[w.id]
	switch o.spec.kind {
	case kCounter:
		l.issued.Add(1)
	case kMaxReg:
		if v > l.issued.Load() {
			l.issued.Store(v)
		}
	case kHist:
		o.observed(w.id, v)
		l.issued.Add(1)
	}
	t0 := now()
	var child time.Duration
	if w.tr != nil {
		child = w.tracedWrite(o, t0, v, withGetter)
	} else {
		w.doWrite(o, v, withGetter)
	}
	t1 := now()
	switch o.spec.kind {
	case kCounter, kHist:
		l.done.Add(1)
	case kMaxReg:
		if v > l.done.Load() {
			l.done.Store(v)
		}
	}
	w.tr.root(spOp, t0, t1, child)
	w.record(false, t0, t1)
	return t1
}

// doWrite is the untraced mutation: the getter when withGetter is set,
// then one Do called on the object's own type, as a user writes it, so
// the closure does not escape to the heap.
func (w *worker) doWrite(o *obj, v uint64, withGetter bool) {
	reg := w.b.reg
	var err error
	switch o.spec.kind {
	case kCounter:
		c := o.c
		if withGetter {
			c, err = reg.Counter(o.spec.name, o.opts...)
		}
		if err == nil {
			c.Do(func(h approxobj.CounterHandle) { h.Inc() })
		}
	case kMaxReg:
		m := o.m
		if withGetter {
			m, err = reg.MaxRegister(o.spec.name, o.opts...)
		}
		if err == nil {
			m.Do(func(h approxobj.MaxRegisterHandle) { h.Write(v) })
		}
	case kSnapshot:
		s := o.s
		if withGetter {
			s, err = reg.SnapshotObject(o.spec.name, o.opts...)
		}
		if err == nil {
			s.Do(func(h approxobj.SnapshotHandle) { o.addToComponent(h, v) })
		}
	case kHist:
		hg, x := o.h, w.b.table[v]
		if withGetter {
			hg, err = reg.HistogramObject(o.spec.name, o.opts...)
		}
		if err == nil {
			hg.Do(func(h approxobj.HistogramHandle) { h.Observe(x) })
		}
	}
	if err != nil {
		w.getterFailed(o, err)
	}
}

// tracedWrite is doWrite with a span at every boundary.
func (w *worker) tracedWrite(o *obj, t0 int64, v uint64, withGetter bool) time.Duration {
	reg, sp := w.b.reg, spWrite+spanName(o.spec.kind)
	switch o.spec.kind {
	case kCounter:
		return callTraced(w, t0, o.c, getterIf(withGetter, reg.Counter), o, sp,
			func(h approxobj.CounterHandle) { h.Inc() })
	case kMaxReg:
		return callTraced(w, t0, o.m, getterIf(withGetter, reg.MaxRegister), o, sp,
			func(h approxobj.MaxRegisterHandle) { h.Write(v) })
	case kSnapshot:
		return callTraced(w, t0, o.s, getterIf(withGetter, reg.SnapshotObject), o, sp,
			func(h approxobj.SnapshotHandle) { o.addToComponent(h, v) })
	default:
		x := w.b.table[v]
		return callTraced(w, t0, o.h, getterIf(withGetter, reg.HistogramObject), o, sp,
			func(h approxobj.HistogramHandle) { h.Observe(x) })
	}
}

// addToComponent adds v to the held slot's snapshot component. The slot,
// and with it the component's lane, is exclusive while the handle is
// held, so the tally is updated inside the call.
func (o *obj) addToComponent(h approxobj.SnapshotHandle, v uint64) {
	l := &o.lanes[h.Component()]
	x := l.issued.Load() + v
	l.issued.Store(x)
	h.Update(x)
	l.done.Store(x)
}

// pooledRead performs one read of object j through a pooled Do and
// checks it against the tallies bracketing it.
func (w *worker) pooledRead(j int) int64 {
	o := w.b.objs[j]
	var x uint64
	var child time.Duration
	pre := w.preRead(o)
	t0 := now()
	if w.tr != nil {
		x, child = w.tracedRead(o, t0)
	} else {
		x = w.doRead(o)
	}
	t1 := now()
	w.tr.root(spOp, t0, t1, child)
	w.record(true, t0, t1)
	w.checkRead(j, pre, x, t0)
	return t1
}

// doRead is the untraced read through one direct Do: x for scalar
// kinds, w.scan for snapshots.
func (w *worker) doRead(o *obj) (x uint64) {
	switch o.spec.kind {
	case kCounter:
		o.c.Do(func(h approxobj.CounterHandle) { x = h.Read() })
	case kMaxReg:
		o.m.Do(func(h approxobj.MaxRegisterHandle) { x = h.Read() })
	case kSnapshot:
		o.s.Do(func(h approxobj.SnapshotHandle) { w.scan = h.ScanInto(w.scan) })
	case kHist:
		o.h.Do(func(h approxobj.HistogramHandle) { x = h.Quantile(0.99) })
	}
	return x
}

// tracedRead is doRead with a span at every boundary.
func (w *worker) tracedRead(o *obj, t0 int64) (x uint64, child time.Duration) {
	sp := spRead + spanName(o.spec.kind)
	switch o.spec.kind {
	case kCounter:
		child = callTraced(w, t0, o.c, nil, o, sp, func(h approxobj.CounterHandle) { x = h.Read() })
	case kMaxReg:
		child = callTraced(w, t0, o.m, nil, o, sp, func(h approxobj.MaxRegisterHandle) { x = h.Read() })
	case kSnapshot:
		child = callTraced(w, t0, o.s, nil, o, sp, func(h approxobj.SnapshotHandle) { w.scan = h.ScanInto(w.scan) })
	case kHist:
		child = callTraced(w, t0, o.h, nil, o, sp, func(h approxobj.HistogramHandle) { x = h.Quantile(0.99) })
	}
	return x, child
}

// preRead loads what a read's check needs from before the read: the
// done tallies (per component for snapshots).
func (w *worker) preRead(o *obj) [lanes]uint64 {
	var pre [lanes]uint64
	if o.spec.kind == kSnapshot {
		for c := range pre {
			pre[c] = o.lanes[c].done.Load()
		}
	} else {
		pre[0] = o.reduce(false)
	}
	return pre
}

// checkRead checks one live read of object j that started at t0: x for
// scalar kinds, w.scan for snapshots.
func (w *worker) checkRead(j int, pre [lanes]uint64, x uint64, t0 int64) {
	b, o := w.b, w.b.objs[j]
	bd := b.bounds[j]
	switch o.spec.kind {
	case kSnapshot:
		ok := len(w.scan) == lanes
		for c := 0; ok && c < lanes; c++ {
			lo, hi := b.envelope(j, c, pre[c], o.lanes[c].issued.Load(), t0, bd)
			ok = bd.ContainsRange(lo, hi, w.scan[c])
		}
		if !w.ck.pass(ok) {
			w.ck.report("%s: read of snapshot %s = %v outside %+v", b.name, o.spec.name, w.scan, bd)
		}
	case kHist:
		// Quantile returns a bucket's lower boundary, so it is at most the
		// largest value issued. Without a cache or a window, the done
		// tally bounds it from both sides (see quantileEdges).
		lo, hi := uint64(0), b.table[len(b.table)-1]
		if !o.spec.cached && !o.spec.windowed {
			var issued [histValues]uint64
			o.histIssued(&issued)
			lo, hi = b.quantileEdges(&issued, pre[0], bd, 0.99)
		}
		if !w.ck.pass(quantileWithin(x, lo, hi, bd)) {
			w.ck.report("%s: Quantile(0.99) of %s = %d outside the bucket floors of [%d, %d]", b.name, o.spec.name, x, lo, hi)
		}
	default:
		lo, hi := b.envelope(j, -1, pre[0], o.reduce(true), t0, bd)
		if !w.ck.pass(bd.ContainsRange(lo, hi, x)) {
			w.ck.report("%s: read of %s %s = %d outside %+v around [%d, %d]", b.name, o.spec.kind, o.spec.name, x, bd, lo, hi)
		}
	}
}

// writeLoop is the dashboard writer: it mutates the four objects through
// its held slot-0 handles.
func (w *worker) writeLoop(deadline int64) {
	b, hh := w.b, &w.b.held[0]
	stream := b.streams[0]
	mask := len(stream) - 1
	tr := w.tr
	for i, t := 0, now(); t < deadline; i++ {
		op := stream[i&mask]
		k := kind(op.obj)
		o := b.objs[op.obj]
		l := &o.lanes[0]
		var t0, t1 int64
		switch k {
		case kCounter:
			l.issued.Add(1)
			t0 = now()
			hh.c.Inc()
			t1 = now()
			l.done.Add(1)
		case kMaxReg:
			if op.val > l.issued.Load() {
				l.issued.Store(op.val)
			}
			t0 = now()
			hh.m.Write(op.val)
			t1 = now()
			if op.val > l.done.Load() {
				l.done.Store(op.val)
			}
		case kSnapshot:
			x := l.issued.Load() + op.val
			l.issued.Store(x)
			t0 = now()
			hh.s.Update(x)
			t1 = now()
			l.done.Store(x)
		case kHist:
			o.observed(0, op.val)
			l.issued.Add(1)
			t0 = now()
			hh.h.Observe(b.table[op.val])
			t1 = now()
			l.done.Add(1)
		}
		tr.root(spOp, t0, t1, tr.leaf(spWrite+spanName(k), t0, t1))
		w.record(false, t0, t1)
		t = t1
	}
}

// readLoop is the dashboard reader: Read, Read, Quantile(0.99) and
// ScanInto over the counter, max register, histogram and snapshot in a
// fixed cycle through its held slot-1 handles, with the operator's
// periodic scrape.
func (w *worker) readLoop(deadline int64) {
	b, hh := w.b, &w.b.held[1]
	cycle := [...]kind{kCounter, kMaxReg, kHist, kSnapshot}
	tr := w.tr
	for i, t := 0, now(); t < deadline; i++ {
		t = w.sideScrape(t)
		k := cycle[i%len(cycle)]
		o := b.objs[k]
		pre := w.preRead(o)
		var x uint64
		t0 := now()
		switch k {
		case kCounter:
			x = hh.c.Read()
		case kMaxReg:
			x = hh.m.Read()
		case kHist:
			x = hh.h.Quantile(0.99)
		case kSnapshot:
			w.scan = hh.s.ScanInto(w.scan)
		}
		t1 := now()
		tr.root(spOp, t0, t1, tr.leaf(spRead+spanName(k), t0, t1))
		w.record(true, t0, t1)
		w.checkRead(int(k), pre, x, t0)
		t = t1
	}
}

// median returns the median of xs (which it sorts), or 0 for none.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
