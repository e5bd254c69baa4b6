package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// On a shared host the effective CPU speed drifts by tens of percent over
// minutes (on a 2-vCPU VM the CPU time of one sweep moved with its wall
// time, so the drift is not scheduling). Reported times are therefore
// scaled to a nominal host: a fixed reference workload, written here and
// independent of the program under test, is timed right before and right
// after each set-up and, on sweep and metro, each timed unit, and that
// set-up's or unit's wall time is multiplied by refNominal / the mean of
// the two. Over 10-run batches this narrowed the run-to-run spread in most
// batches, and of sweep's timed figures in every one; one factor per run,
// from samples taken anywhere in it, did not.
// That reference is timed only when none of the program's goroutines is
// left, so ingest, whose reader runs beside the replays, scales each replay
// by readRef samples taken before and after it instead (over 8-run batches
// of its campaign_days_per_s: 12.1 % raw, 5.4 % scaled so; bracketing the
// whole phase with refWork samples gave 13.7 % against 14.9 % raw). Its
// reads stay raw. Table reads on sweep and metro are scaled one by one by
// readRef.
//
// The reference shares the process with the program, so it is kept out of
// the program's reach: a sample waits until none of the program's
// goroutines is left (and fails if one stays) and completes any garbage
// collection first, and the reference allocates nothing on the Go heap, so
// the program's heap neither changes its cost nor is collected at another
// pace because of it. The raw figures are printed beside the metrics.

// refNominal is the reference's wall time, in seconds, on the nominal host.
const refNominal = 0.1

// refWork is one copy of the reference with its buffers, mapped outside the
// Go heap once for the life of the process: they are no ballast for the
// garbage collector, so holding a clock does not change how often the
// program's heap is collected.
type refWork struct {
	xs    []uint64 // words to sort
	table []uint64 // open-addressing hash set; 0 marks an empty slot
	buf   []byte   // bytes to hash
	keep  uint64   // keeps the results live
}

func newRefWork() (*refWork, error) {
	const words, slots, bytes = 1 << 19, 1 << 18, 2 << 20
	mem, err := syscall.Mmap(-1, 0, (words+slots)*8+bytes,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("host reference buffers: %w", err)
	}
	u := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), words+slots)
	return &refWork{xs: u[:words], table: u[words:], buf: mem[(words+slots)*8:]}, nil
}

// run is the fixed reference: sort 2^19 pseudo-random words, fill and
// probe a hash set, and hash 2 MB.
func (w *refWork) run() {
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range w.xs {
		w.xs[i] = next()
	}
	slices.Sort(w.xs)
	clear(w.table)
	mask := uint64(len(w.table) - 1)
	slot := func(k uint64) uint64 {
		i := (k * 0x9E3779B97F4A7C15) >> 46 & mask
		for w.table[i] != 0 && w.table[i] != k {
			i = (i + 1) & mask
		}
		return i
	}
	for i := 0; i < 1<<17; i++ {
		k := next()&0x1FFFFF + 1
		w.table[slot(k)] = k
	}
	hits := uint64(0)
	for i := 0; i < 1<<18; i++ {
		if w.table[slot(next()&0x1FFFFF+1)] != 0 {
			hits++
		}
	}
	for i := range w.buf {
		w.buf[i] = byte(w.xs[i&(len(w.xs)-1)])
	}
	sum := sha256.Sum256(w.buf)
	w.keep += hits + uint64(sum[0]) + w.xs[len(w.xs)/2]
}

// readRefNominal is the read reference's wall time, in milliseconds, on the
// nominal host; a sample is the median of readRefSamples runs.
const (
	readRefNominal = 0.6
	readRefSamples = 9
)

// readRef is the reference a table read is scaled by: a single-threaded
// workload about twice a read's length, timed on the reading goroutine
// right after each read. A read of a few hundred microseconds ran at two
// speeds 1.7x apart that switched every few tens of milliseconds, and at
// a speed that drifted by 10 % between runs minutes apart. The reference
// sorts and hashes, like refWork, and formats numbers into text, as the
// reports do; timed beside the read it moved with both, so the ratio stays
// put where the raw read does not (over four 35 s metro runs the median
// read moved 35 % raw and 5 % as a ratio). Like refWork it allocates
// nothing on the Go heap.
type readRef struct {
	xs   []uint64 // words to sort
	buf  []byte   // bytes to hash
	text []byte   // formatted numbers; its capacity holds them all
	keep uint64   // keeps the results live
}

func newReadRef() (*readRef, error) {
	const words, bytes, text = 1 << 12, 32 << 10, 64 << 10
	mem, err := syscall.Mmap(-1, 0, words*8+bytes+text,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("read reference buffers: %w", err)
	}
	return &readRef{xs: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), words),
		buf: mem[words*8 : words*8+bytes], text: mem[words*8+bytes : words*8+bytes : words*8+bytes+text]}, nil
}

// run is the fixed read reference: sort 2^12 pseudo-random words, hash
// 32 KB and format 1500 lines of a float and an integer.
func (w *readRef) run() {
	x := uint64(88172645463325252)
	for i := range w.xs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		w.xs[i] = x
	}
	slices.Sort(w.xs)
	for i := range w.buf {
		w.buf[i] = byte(w.xs[i&(len(w.xs)-1)])
	}
	sum := sha256.Sum256(w.buf)
	t, f := w.text[:0], 1.2345
	for i := 0; i < 1500; i++ {
		t = strconv.AppendFloat(t, f, 'f', 2, 64)
		t = append(t, ' ')
		t = strconv.AppendInt(t, int64(i)*7919, 10)
		t = append(t, '\n')
		if f = f*1.37 + 0.11; f > 1e6 {
			f -= 1e6
		}
	}
	w.keep += uint64(sum[0]) + w.xs[len(w.xs)/2] + uint64(len(t))
}

// sample returns the median wall time, in milliseconds, of readRefSamples
// runs of the reference. It is the reading of the host's speed where a
// hostClock sample cannot be taken because program goroutines remain (on
// ingest, the reader's reads and the sink answering them). Program work
// beside it can slow it and so flatter the figure it scales; the median
// drops a run that a short burst overlaps, and the raw figure is printed
// beside the scaled one.
func (w *readRef) sample() float64 {
	var ms [readRefSamples]float64
	for i := range ms {
		t0 := time.Now()
		w.run()
		ms[i] = since(t0) * 1e3
	}
	return median(ms[:])
}

// scale returns ms, a read's latency in milliseconds, scaled to the
// nominal host by the reference timed right after it.
func (w *readRef) scale(ms float64) float64 {
	t0 := time.Now()
	w.run()
	return ms * readRefNominal / (since(t0) * 1e3)
}

// hostClock times the reference for one run.
type hostClock struct {
	work []*refWork // one copy per CPU
	idle int        // goroutines running when the clock was made: none of the program's
}

// newHostClock makes a clock before the program under test has started any
// goroutine.
func newHostClock() (*hostClock, error) {
	h := &hostClock{idle: runtime.NumGoroutine()}
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		w, err := newRefWork()
		if err != nil {
			return nil, err
		}
		h.work = append(h.work, w)
	}
	return h, nil
}

// sample runs the reference on every CPU at once and returns the mean wall
// time of the copies. It first waits until no goroutine of the program is
// left and fails when one still runs after 10 s.
func (h *hostClock) sample() (float64, error) {
	if !waitGoroutines(h.idle) {
		return 0, fmt.Errorf("%d goroutines still run where %d are expected; the host reference cannot be timed beside them",
			runtime.NumGoroutine(), h.idle)
	}
	runtime.GC()
	times := make([]float64, len(h.work))
	var wg sync.WaitGroup
	for i, w := range h.work {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			w.run()
			times[i] = since(t0)
		}()
	}
	wg.Wait()
	mean := 0.0
	for _, t := range times {
		mean += t / float64(len(times))
	}
	return mean, nil
}

// waitGoroutines waits (up to 10 s) until no more than n goroutines run.
func waitGoroutines(n int) bool {
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if runtime.NumGoroutine() <= n {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}
