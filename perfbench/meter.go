package main

import (
	"runtime"
	"slices"
	"syscall"
	"time"
)

// A measured window is cut into slices of about sliceLen. Rates and
// per-PDU costs are reported as the median over slices, so a short stall
// caused by something else on the machine moves one slice, not the result.
const sliceLen = time.Second

// reading is the process and workload state at one instant.
type reading struct {
	at        time.Time
	cpu       time.Duration
	mallocs   uint64
	numGC     uint32
	gcPauseNs uint64
	pkts      uint64 // PDUs delivered by the provider so far
	good      uint64 // intact application bytes delivered so far
}

// interval is the difference between two readings.
type interval struct {
	wall       time.Duration
	cpu        time.Duration
	mallocs    uint64
	numGC      uint32
	gcPauseNs  uint64
	pkts, good uint64
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// window collects the readings of one measured window.
type window struct {
	marks     []reading
	heapInuse uint64 // after the window, with a collection forced first
}

// mark takes a reading; the workload supplies its own two counters.
func (w *window) mark(pkts, good uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.marks = append(w.marks, reading{at: time.Now(), cpu: processCPU(), mallocs: ms.Mallocs,
		numGC: ms.NumGC, gcPauseNs: ms.PauseTotalNs, pkts: pkts, good: good})
}

// finish records the heap in use at the end of the window.
func (w *window) finish() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.heapInuse = ms.HeapInuse
}

func between(a, b reading) interval {
	return interval{wall: b.at.Sub(a.at), cpu: b.cpu - a.cpu, mallocs: b.mallocs - a.mallocs,
		numGC: b.numGC - a.numGC, gcPauseNs: b.gcPauseNs - a.gcPauseNs,
		pkts: b.pkts - a.pkts, good: b.good - a.good}
}

// total is the whole window.
func (w *window) total() interval {
	if len(w.marks) < 2 {
		return interval{}
	}
	return between(w.marks[0], w.marks[len(w.marks)-1])
}

// sliceMedian is the median over slices of f.
func (w *window) sliceMedian(f func(iv interval) float64) float64 {
	var xs []float64
	for i := 1; i < len(w.marks); i++ {
		xs = append(xs, f(between(w.marks[i-1], w.marks[i])))
	}
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs (nearest rank); xs is sorted in
// place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(q*float64(len(xs)-1) + 0.5)
	return xs[i]
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// latencies collects one-way message latencies by the measured slice they
// completed in. Outside the window nothing is kept.
type latencies struct {
	cur, end int // current slice; the window is slices [0, end)
	by       [][]float64
}

func (l *latencies) active() bool { return l.cur >= 0 && l.cur < l.end }

// open starts the window at slice 0 of n.
func (l *latencies) open(n int) { l.cur, l.end = 0, n }

func (l *latencies) add(us float64) {
	if !l.active() {
		return
	}
	for len(l.by) <= l.cur {
		l.by = append(l.by, nil)
	}
	l.by[l.cur] = append(l.by[l.cur], us)
}

func (l *latencies) merge(o *latencies) {
	for i, b := range o.by {
		for len(l.by) <= i {
			l.by = append(l.by, nil)
		}
		l.by[i] = append(l.by[i], b...)
	}
}

// quantile is the median over slices of each slice's q-quantile.
func (l *latencies) quantile(q float64) float64 {
	var xs []float64
	for _, b := range l.by {
		if len(b) > 0 {
			xs = append(xs, quantile(b, q))
		}
	}

	return quantile(xs, 0.5)
}

func (l *latencies) count() (n int) {
	for _, b := range l.by {
		n += len(b)
	}
	return n
}
