package main

import _ "unsafe" // for go:linkname

// now reads the runtime's monotonic clock in nanoseconds. It is the
// clock time.Now reads too, without the wall-clock half, so a latency
// sample pays for one clock read instead of two.
//
//go:linkname now runtime.nanotime
func now() int64
