package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"strconv"
	"sync"
	"time"

	"approxobj"
	"approxobj/expose"
)

// history keeps periodic captures of every object's lane tallies, so a
// check of a cached or windowed read can look up what had been done (or
// issued) at an earlier time: a cached read may serve a value combined up
// to Stale ago, and a windowed read covers only the recent epochs.
type history struct {
	mu    sync.Mutex
	times []int64    // capture times, from now()
	done  [][]uint64 // [capture][object*lanes+lane]
	iss   [][]uint64
	next  int
	n     int
	every int64
}

const historyCaptures = 96

func newHistory(objects int) *history {
	h := &history{every: int64(100 * time.Millisecond)}
	h.times = make([]int64, historyCaptures)
	h.done = make([][]uint64, historyCaptures)
	h.iss = make([][]uint64, historyCaptures)
	for i := range h.done {
		h.done[i] = make([]uint64, objects*lanes)
		h.iss[i] = make([]uint64, objects*lanes)
	}
	return h
}

// capture records the tallies at now if the last capture is older than
// the capture interval. Done values are loaded before issued ones, so a
// capture at time t holds done <= done(t) and issued >= issued(t).
func (h *history) capture(objs []*obj, t int64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n > 0 && t-h.times[(h.next+historyCaptures-1)%historyCaptures] < h.every {
		return
	}
	i := h.next
	h.times[i] = t
	for j, o := range objs {
		for l := range o.lanes {
			h.done[i][j*lanes+l] = o.lanes[l].done.Load()
		}
	}
	for j, o := range objs {
		for l := range o.lanes {
			h.iss[i][j*lanes+l] = o.lanes[l].issued.Load()
		}
	}
	h.next = (i + 1) % historyCaptures
	h.n = min(h.n+1, historyCaptures)
}

// doneBefore returns a lower bound on object j's done tally at time t:
// the newest capture taken at or before t, or 0 when every capture is
// newer (the tallies start at 0 before the run).
func (h *history) doneBefore(o *obj, j, ln int, t int64) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	for k := 1; k <= h.n; k++ {
		i := (h.next - k + historyCaptures) % historyCaptures
		if h.times[i] <= t {
			return fold(o, h.done[i][j*lanes:(j+1)*lanes], ln)
		}
	}
	return 0
}

// issuedAfter returns an upper bound on object j's issued tally at time
// t: the oldest capture taken at or after t, or fallback (a value loaded
// after t) when none is.
func (h *history) issuedAfter(o *obj, j, ln int, t int64, fallback uint64) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	for k := h.n; k >= 1; k-- {
		i := (h.next - k + historyCaptures) % historyCaptures
		if h.times[i] >= t {
			return fold(o, h.iss[i][j*lanes:(j+1)*lanes], ln)
		}
	}
	return fallback
}

// fold reduces captured lane values like obj.reduce, or picks lane ln
// when ln >= 0.
func fold(o *obj, vals []uint64, ln int) uint64 {
	if ln >= 0 {
		return vals[ln]
	}
	var v uint64
	for _, x := range vals {
		if o.spec.kind.counting() {
			v += x
		} else {
			v = max(v, x)
		}
	}
	return v
}

// envelope returns the true-value interval [lo, hi] a read of object j
// (lane ln, or all lanes when ln < 0) may linearize against: lo is the
// tally done before the read started, hi the tally issued by its end.
// A read-cache staleness moves the lower edge back by Stale; a window
// drops what was issued before the covered epochs (at least the last
// d - 2·Window, allowing one epoch of skew at each edge), and for
// non-counting kinds a window may have expired everything, so lo is 0.
func (b *bench) envelope(j, ln int, pre, post uint64, start int64, bd approxobj.Bounds) (lo, hi uint64) {
	o := b.objs[j]
	lo, hi = pre, post
	if bd.Stale > 0 {
		start -= int64(bd.Stale)
		lo = b.hist.doneBefore(o, j, ln, start)
	}
	if bd.Window > 0 {
		if !o.spec.kind.counting() {
			return 0, hi
		}
		covered := time.Duration(windowRing-2) * bd.Window
		drop := b.hist.issuedAfter(o, j, ln, start-int64(covered), post)
		lo -= min(lo, drop)
	}
	return lo, hi
}

// checker counts a goroutine's correctness checks and prints failures.
type checker struct {
	attempted uint64
	failed    uint64
	printed   int
}

func (c *checker) check(ok bool, format string, args ...any) {
	if !c.pass(ok) {
		c.report(format, args...)
	}
}

// pass counts one check and returns ok. Hot paths call it and build the
// failure message only when it fails, since boxing the arguments of
// check allocates.
func (c *checker) pass(ok bool) bool {
	c.attempted++
	if !ok {
		c.failed++
	}
	return ok
}

// report prints one failure; after the first 20 only the count grows.
func (c *checker) report(format string, args ...any) {
	if c.printed < 20 {
		c.printed++
		fmt.Fprintf(os.Stderr, "perfbench: FAIL "+format+"\n", args...)
	}
}

// scrapeView is one parsed scrape: per object, the exported count (the
// counter's _total or the histogram's _count) and its _bound terms.
type scrapeView struct {
	value  []uint64
	seen   []bool
	bounds []approxobj.Bounds
}

func newScrapeView(n int) *scrapeView {
	return &scrapeView{value: make([]uint64, n), seen: make([]bool, n), bounds: make([]approxobj.Bounds, n)}
}

// parse reads the samples the bound check needs out of a scrape body.
func (v *scrapeView) parse(body []byte, byName map[string]int) error {
	clear(v.seen)
	for i := range v.bounds {
		v.bounds[i] = approxobj.Bounds{Mult: 1}
	}
	for len(body) > 0 {
		line := body
		if i := bytes.IndexByte(body, '\n'); i >= 0 {
			line, body = body[:i], body[i+1:]
		} else {
			body = nil
		}
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		sp := bytes.LastIndexByte(line, ' ')
		if sp < 0 {
			return fmt.Errorf("sample line without value: %q", line)
		}
		name, val := line[:sp], line[sp+1:]
		if base, ok := bytes.CutSuffix(name, []byte(`"}`)); ok {
			base, term, ok := bytes.Cut(base, []byte(`_bound{term="`))
			if !ok {
				continue
			}
			j, known := byName[string(base)]
			if !known {
				continue
			}
			f, err := strconv.ParseFloat(string(val), 64)
			if err != nil {
				return fmt.Errorf("bound %q: %v", line, err)
			}
			b := &v.bounds[j]
			switch string(term) {
			case "mult":
				b.Mult = uint64(f)
			case "add":
				b.Add = uint64(f)
			case "buffer":
				b.Buffer = uint64(f)
			case "stale_seconds":
				b.Stale = time.Duration(f * float64(time.Second))
			case "window_seconds":
				b.Window = time.Duration(f * float64(time.Second))
			}
			continue
		}
		base, ok := bytes.CutSuffix(name, []byte("_total"))
		if !ok {
			base, ok = bytes.CutSuffix(name, []byte("_count"))
		}
		if !ok {
			continue
		}
		if j, known := byName[string(base)]; known {
			x, err := strconv.ParseUint(string(val), 10, 64)
			if err != nil {
				return fmt.Errorf("sample %q: %v", line, err)
			}
			v.value[j], v.seen[j] = x, true
		}
	}
	return nil
}

// checkScrape validates one scrape: it must pass expose.Lint, export a
// count for every counter and histogram, and every such count must lie
// inside the envelope its own _bound series describes around the exact
// tallies (pre loaded before the scrape, post after it).
func (b *bench) checkScrape(ck *checker, body []byte, view *scrapeView, pre, post []uint64, start int64) {
	if err := expose.Lint(string(body)); err != nil {
		ck.check(false, "%s: scrape fails expose.Lint: %v", b.name, err)
		return
	}
	if err := view.parse(body, b.byName); err != nil {
		ck.check(false, "%s: scrape unparsable: %v", b.name, err)
		return
	}
	ok := true
	for j, o := range b.objs {
		if !o.spec.kind.counting() {
			continue
		}
		if !view.seen[j] {
			ck.check(false, "%s: scrape lacks a count for %s", b.name, o.spec.name)
			return
		}
		lo, hi := b.envelope(j, -1, pre[j], post[j], start, view.bounds[j])
		if x := view.value[j]; !view.bounds[j].ContainsRange(lo, hi, x) {
			ck.report("%s: scrape of %s = %d outside %+v around [%d, %d]", b.name, o.spec.name, x, view.bounds[j], lo, hi)
			ok = false
		}
	}
	ck.check(ok, "%s: scrape outside its _bound envelope", b.name)
}

// loadTallies fills dst with every object's reduced done (or issued)
// tally.
func (b *bench) loadTallies(dst []uint64, issued bool) {
	for j, o := range b.objs {
		dst[j] = o.reduce(issued)
	}
}

// checkQuiescent reads every object once more after all load goroutines
// have stopped and every pooled handle is released, and checks the read
// against the exact tallies: counts, maxima, every snapshot component,
// and each histogram's count and rank at every observed value.
func (b *bench) checkQuiescent(ck *checker) {
	var scan []uint64
	t := now()
	for j, o := range b.objs {
		bd := b.bounds[j]
		tally := o.reduce(false)
		lo, hi := b.envelope(j, -1, tally, tally, t, bd)
		switch o.spec.kind {
		case kCounter:
			var x uint64
			quiescentRead(b.held[1].c, o.c.Do, func(h approxobj.CounterHandle) { x = h.Read() })
			ck.check(bd.ContainsRange(lo, hi, x), "%s: quiescent counter %s = %d outside %+v around [%d, %d]", b.name, o.spec.name, x, bd, lo, hi)
		case kMaxReg:
			var x uint64
			quiescentRead(b.held[1].m, o.m.Do, func(h approxobj.MaxRegisterHandle) { x = h.Read() })
			ck.check(bd.ContainsRange(lo, hi, x), "%s: quiescent max register %s = %d outside %+v around [%d, %d]", b.name, o.spec.name, x, bd, lo, hi)
		case kSnapshot:
			quiescentRead(b.held[1].s, o.s.Do, func(h approxobj.SnapshotHandle) { scan = h.ScanInto(scan) })
			for c, x := range scan {
				v := o.lanes[c].done.Load()
				clo, chi := b.envelope(j, c, v, v, t, bd)
				ck.check(bd.ContainsRange(clo, chi, x), "%s: quiescent snapshot %s[%d] = %d outside %+v around [%d, %d]", b.name, o.spec.name, c, x, bd, clo, chi)
			}
		case kHist:
			var count, q99 uint64
			var ranks [histValues]uint64
			quiescentRead(b.held[1].h, o.h.Do, func(h approxobj.HistogramHandle) {
				count = h.Count()
				q99 = h.Quantile(0.99)
				for i, v := range b.table {
					ranks[i] = h.Rank(v)
				}
			})
			ck.check(bd.ContainsRange(lo, hi, count), "%s: quiescent histogram %s count = %d outside %+v around [%d, %d]", b.name, o.spec.name, count, bd, lo, hi)
			if o.spec.cached || o.spec.windowed {
				continue
			}
			b.checkRanks(ck, o, bd, ranks[:])
			var issued [histValues]uint64
			o.histIssued(&issued)
			qlo, qhi := b.quantileEdges(&issued, tally, bd, 0.99)
			ck.check(quantileWithin(q99, qlo, qhi, bd), "%s: quiescent histogram %s Quantile(0.99) = %d outside the bucket floors of [%d, %d]", b.name, o.spec.name, q99, qlo, qhi)
		}
	}
}

// quiescentRead runs f on the dashboard's held reader handle when there
// is one (a slot must not have two live handles), else through a pooled
// Do.
func quiescentRead[H any](held H, do func(func(H)), f func(H)) {
	if any(held) != nil {
		f(held)
	} else {
		do(f)
	}
}

// checkRanks checks Rank(v) at every observed value v: a bucketed rank
// counts every observation <= v and none above the top of v's bucket,
// which is below Mult·v, less at most Buffer unflushed observations.
func (b *bench) checkRanks(ck *checker, o *obj, bd approxobj.Bounds, ranks []uint64) {
	var issued [histValues]uint64
	o.histIssued(&issued)
	var below [histValues + 1]uint64 // below[i]: observations of values table[:i]
	for i, c := range issued {
		below[i+1] = below[i] + c
	}
	upTo := func(x uint64) uint64 { // observations with value <= x
		n := 0
		for n < len(b.table) && b.table[n] <= x {
			n++
		}
		return below[n]
	}
	for i, v := range b.table {
		lo := upTo(v)
		lo -= min(lo, bd.Buffer)
		hi := upTo(v*max(bd.Mult, 1) - 1)
		hi = max(hi, upTo(v))
		ck.check(lo <= ranks[i] && ranks[i] <= hi, "%s: quiescent histogram %s Rank(%d) = %d outside [%d, %d]", b.name, o.spec.name, v, ranks[i], lo, hi)
	}
}

// targetRank is the rank a q-quantile of n observations stands for:
// ceil(q·n) clamped to [1, n], or 0 when n is 0.
func targetRank(q float64, n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return min(max(uint64(math.Ceil(q*float64(n))), 1), n)
}

// nth returns the r-th smallest (from 1) of the observations counted per
// histValue in counts: 0 when r is 0, the largest when r exceeds them.
func (b *bench) nth(counts *[histValues]uint64, r uint64) uint64 {
	var seen, last uint64
	for i, c := range counts {
		if r == 0 || seen >= r {
			break
		}
		if c > 0 {
			seen, last = seen+c, b.table[i]
		}
	}
	return last
}

// quantileEdges returns the range [lo, hi] of observed values a
// histogram's q-quantile may stand for, given the observations issued
// (loaded after the query) and the count done before it. The histogram
// counts, bucket by bucket, a part of the issued observations holding at
// least n = done − Buffer of them. The quantile's observation therefore
// lies between the issued ones at rank targetRank(q, n) and at rank
// targetRank(q, N) + N − n, where N is the number issued.
func (b *bench) quantileEdges(issued *[histValues]uint64, done uint64, bd approxobj.Bounds, q float64) (lo, hi uint64) {
	var all uint64
	for _, c := range issued {
		all += c
	}
	n := done - min(done, bd.Buffer)
	return b.nth(issued, targetRank(q, n)), b.nth(issued, min(all, targetRank(q, all)+all-n))
}

// quantileWithin reports whether x, a Quantile result, is the bucket
// floor of a value in [lo, hi]: at most the value and, since a bucket's
// top is below Mult times its floor, more than a Mult-th of it.
func quantileWithin(x, lo, hi uint64, bd approxobj.Bounds) bool {
	return x <= hi && x*max(bd.Mult, 1) >= lo
}
