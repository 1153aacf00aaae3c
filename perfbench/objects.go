package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"approxobj"
)

// kind is one of the library's four object kinds.
type kind uint8

const (
	kCounter kind = iota
	kMaxReg
	kSnapshot
	kHist
	numKinds
)

var kindNames = [numKinds]string{"counter", "maxreg", "snapshot", "histogram"}

func (k kind) String() string { return kindNames[k] }

// counting reports whether the kind's tallied value is a count of
// mutations (summed over lanes) rather than a value (maxed over lanes).
func (k kind) counting() bool { return k == kCounter || k == kHist }

const (
	procs       = 2       // WithProcs of every object: one slot per load goroutine
	lanes       = procs   // tally lanes: writer goroutines, or snapshot components
	valueBound  = 1 << 20 // WithBound of max registers and histograms
	histValues  = 64      // distinct observation values per run
	windowDur   = 4 * time.Second
	windowRing  = 4
	cacheStale  = time.Second
	opChunkBits = 17 // a goroutine's op stream holds 2^17 ops, replayed cyclically
)

// objSpec is the configuration of one benchmark object.
type objSpec struct {
	name     string
	kind     kind
	acc      approxobj.Accuracy
	shards   int
	batch    int
	cached   bool
	windowed bool
}

func (s objSpec) options(tel *approxobj.Telemetry) []approxobj.Option {
	opts := []approxobj.Option{
		approxobj.WithProcs(procs),
		approxobj.WithAccuracy(s.acc),
		approxobj.WithShards(s.shards),
		approxobj.WithBatch(s.batch),
	}
	if s.kind == kMaxReg || s.kind == kHist {
		opts = append(opts, approxobj.WithBound(valueBound))
	}
	if s.cached {
		opts = append(opts, approxobj.WithReadCache(cacheStale))
	}
	if s.windowed {
		opts = append(opts, approxobj.WithWindow(windowDur, windowRing))
	}
	if tel != nil {
		opts = append(opts, approxobj.WithTelemetry(tel))
	}
	return opts
}

// lane is one writer's (or one snapshot component's) exact tally of an
// object, padded to its own cache line. For counting kinds issued and
// done count mutations; for max registers they hold the largest value
// written, for snapshots the component's latest value. The owner stores
// issued before a mutation starts and done after it returns, so a reader
// that loads done before its read and issued after it brackets the true
// value the read may linearize against.
type lane struct {
	issued atomic.Uint64
	done   atomic.Uint64
	_      [48]byte
}

// obj is one built object together with its tallies.
type obj struct {
	spec objSpec
	opts []approxobj.Option
	c    *approxobj.Counter
	m    *approxobj.MaxRegister
	s    *approxobj.Snapshot
	h    *approxobj.Histogram

	lanes [lanes]lane
	// vals[w][i] counts writer w's observations of histValue i, issued
	// before the call like the lane's issued tally. Each row has one
	// writer; checks load it during the run and after.
	vals [lanes]*[histValues]atomic.Uint64
}

// observed counts writer w's observation of histValue i.
func (o *obj) observed(w int, i uint64) {
	c := &o.vals[w][i]
	c.Store(c.Load() + 1) // one writer per row
}

// histIssued fills dst with the observations of each histValue issued
// so far, over all writers.
func (o *obj) histIssued(dst *[histValues]uint64) {
	for i := range dst {
		dst[i] = 0
		for w := range o.vals {
			dst[i] += o.vals[w][i].Load()
		}
	}
}

// register builds the object in reg through its typed getter.
func (o *obj) register(reg *approxobj.Registry) error {
	var err error
	switch o.spec.kind {
	case kCounter:
		o.c, err = reg.Counter(o.spec.name, o.opts...)
	case kMaxReg:
		o.m, err = reg.MaxRegister(o.spec.name, o.opts...)
	case kSnapshot:
		o.s, err = reg.SnapshotObject(o.spec.name, o.opts...)
	case kHist:
		o.h, err = reg.HistogramObject(o.spec.name, o.opts...)
		for w := range o.vals {
			o.vals[w] = new([histValues]atomic.Uint64)
		}
	}
	if err != nil {
		return fmt.Errorf("register %s: %w", o.spec.name, err)
	}
	return nil
}

func (o *obj) bounds() approxobj.Bounds {
	switch o.spec.kind {
	case kCounter:
		return o.c.Bounds()
	case kMaxReg:
		return o.m.Bounds()
	case kSnapshot:
		return o.s.Bounds()
	default:
		return o.h.Bounds()
	}
}

// reduce folds the lanes' done (or issued) values into the object's
// tallied value: a sum for counting kinds, a maximum otherwise.
func (o *obj) reduce(issued bool) uint64 {
	var v uint64
	for i := range o.lanes {
		x := o.lanes[i].done.Load()
		if issued {
			x = o.lanes[i].issued.Load()
		}
		if o.spec.kind.counting() {
			v += x
		} else {
			v = max(v, x)
		}
	}
	return v
}

// op is one generated user operation.
type op struct {
	obj  uint16
	read bool
	val  uint64 // max-register value, snapshot increment, or histValue index
}

// histTable draws the run's distinct observation values, log-uniform in
// [1, valueBound): value i is drawn from the i-th of histValues equal
// log-strata, so every seed spreads its values over the same buckets.
// The table is ascending, so rank checks are prefix sums.
func histTable(rng *rand.Rand) []uint64 {
	t := make([]uint64, histValues)
	span := math.Log(valueBound - 1)
	for i := range t {
		t[i] = uint64(math.Exp((float64(i) + rng.Float64()) / histValues * span))
	}
	return t
}

func logUniform(rng *rand.Rand) uint64 {
	return uint64(math.Exp(rng.Float64() * math.Log(valueBound-1)))
}

// opValue draws the value carried by a mutation of kind k.
func opValue(rng *rand.Rand, k kind) uint64 {
	switch k {
	case kMaxReg:
		return logUniform(rng)
	case kSnapshot:
		return 1 + uint64(rng.Intn(16))
	case kHist:
		return uint64(rng.Intn(histValues))
	}
	return 0
}
