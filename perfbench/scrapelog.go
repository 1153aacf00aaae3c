package main

import (
	"encoding/binary"
	"syscall"
)

// scrapeLog keeps the side scrapes of ingest and dashboard, with the
// tallies bracketing each, so they are checked after the timed phase
// instead of between the scraping goroutine's ops: checking a scrape
// (expose.Lint above all) costs more than taking it. The log lives in an
// anonymous mapping outside the Go heap, so keeping the bodies does not
// change how often the collector runs, and the mapping is populated when
// it is made, so appending takes no page faults during the timed phase.
// A scrape that does not fit is checked at once instead.
type scrapeLog struct {
	mem []byte
	off int
}

const scrapeLogBytes = 96 << 20

func newScrapeLog() (*scrapeLog, error) {
	mem, err := syscall.Mmap(-1, 0, scrapeLogBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_POPULATE)
	if err != nil {
		return nil, err
	}
	return &scrapeLog{mem: mem}, nil
}

// add appends one scrape taken at t0 and reports whether it fit.
func (l *scrapeLog) add(t0 int64, pre, post []uint64, body []byte) bool {
	need := 8 * (2 + len(pre) + len(post))
	need += len(body) + (8-len(body)%8)%8
	if l.off+need > len(l.mem) {
		return false
	}
	m := l.mem[l.off:]
	binary.LittleEndian.PutUint64(m, uint64(t0))
	binary.LittleEndian.PutUint64(m[8:], uint64(len(body)))
	i := 16
	for _, v := range pre {
		binary.LittleEndian.PutUint64(m[i:], v)
		i += 8
	}
	for _, v := range post {
		binary.LittleEndian.PutUint64(m[i:], v)
		i += 8
	}
	copy(m[i:], body)
	l.off += need
	return true
}

// each calls f for every logged scrape in order, decoding the tallies
// into pre and post.
func (l *scrapeLog) each(pre, post []uint64, f func(t0 int64, body []byte)) {
	for off := 0; off < l.off; {
		m := l.mem[off:]
		t0 := int64(binary.LittleEndian.Uint64(m))
		n := int(binary.LittleEndian.Uint64(m[8:]))
		i := 16
		for j := range pre {
			pre[j] = binary.LittleEndian.Uint64(m[i:])
			i += 8
		}
		for j := range post {
			post[j] = binary.LittleEndian.Uint64(m[i:])
			i += 8
		}
		f(t0, m[i:i+n])
		off += i + n + (8-n%8)%8
	}
}

func (l *scrapeLog) close() error { return syscall.Munmap(l.mem) }
