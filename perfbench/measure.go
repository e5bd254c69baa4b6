package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// seedSet is a fixed set of campaign seeds: sweeps run Base..Base+Count-1,
// the ingest and metro campaigns run Base. Per-seed cost differs by up to
// 15 %, so runs on different sets are never compared with each other.
type seedSet struct {
	Name  string
	Base  uint64
	Count int
}

// seedSets are the development set every comparison uses and the held-out
// set that confirms a claim made on it.
var seedSets = map[string]seedSet{
	"dev":     {Name: "dev", Base: 1, Count: 8},
	"holdout": {Name: "holdout", Base: 101, Count: 8},
}

// warmupSeed drives the warm-up passes; it lies outside every timed set.
const warmupSeed = 9001

// setupRepeats is how many times a run builds its inputs; setup_s is the
// median, so one slow build cannot move it.
const setupRepeats = 9

// readsPerUnit is the number of table reads timed after each sweep or metro
// unit, enough for a p90 with ten samples beyond it in every run; they
// start with readsWarm untimed reads, since the unit before them leaves the
// caches cold.
const (
	readsPerUnit = 500
	readsWarm    = 5
)

// setupTimes are one run's set-up wall times, raw and scaled to the
// nominal host by the mean of the reference samples taken right before and
// right after each set-up.
type setupTimes struct{ raw, scaled []float64 }

// setupRepeated runs build setupRepeats times, sampling the host clock
// before the first and after each. The state the last call built is what
// the run uses.
func setupRepeated(clock *hostClock, build func() error) (setupTimes, error) {
	var st setupTimes
	before, err := clock.sample()
	if err != nil {
		return st, err
	}
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if err := build(); err != nil {
			return st, err
		}
		raw := since(t0)
		after, err := clock.sample()
		if err != nil {
			return st, err
		}
		st.raw = append(st.raw, raw)
		st.scaled = append(st.scaled, raw*refNominal/((before+after)/2))
		before = after
	}
	return st, nil
}

// timedPhase is what a run's timed phase measured: each unit's wall time
// and the table-read latencies in milliseconds (on sweep and metro the
// readsPerUnit reads after each unit, each already scaled by its readRef;
// on ingest the raw reads spanning the phase). ref, when not nil, holds one
// reference sample before the first unit and one after each unit (and its
// reads), of a reference whose time on the nominal host is nominal.
type timedPhase struct {
	units, ref, reads []float64
	nominal           float64
}

// scaled returns the phase with each unit scaled to the nominal host by the
// mean of the reference samples around it; a phase without samples is
// returned as measured. The reads are returned as they are.
func (t timedPhase) scaled() timedPhase {
	if t.ref == nil {
		return t
	}
	out := timedPhase{units: make([]float64, len(t.units)), reads: t.reads}
	for i, u := range t.units {
		out.units[i] = u * t.nominal / ((t.ref[i] + t.ref[i+1]) / 2)
	}
	return out
}

// unitReads times readsPerUnit table reads after a collection (the unit
// before them leaves its garbage), each scaled by ref, and appends them to
// reads.
func unitReads(reads []float64, ref *readRef, read func() error) ([]float64, error) {
	runtime.GC()
	return closedReads(reads, readsWarm, readsPerUnit, ref, read)
}

// reportEndToEnd records an untraced run's time metrics: the median
// set-up seconds scaled to the nominal host, campaign-days per second of the
// median timed unit, scaled where the phase has reference samples, and the
// read latencies as the phase holds them. The raw set-up and unit figures
// are printed too. It is called before the second heap reading, so the
// phase's bookkeeping is not counted as live heap.
func reportEndToEnd(r *run, setup setupTimes, daysPerUnit float64, phase timedPhase) {
	r.notef("set-ups: raw %.4g s, scaled %.4g s (median raw %.6g s); %d timed units",
		setup.raw, setup.scaled, median(setup.raw), len(phase.units))
	r.notef("raw: campaign_days_per_s %.6g", daysPerUnit/median(phase.units))
	r.set("setup_s", "s", median(setup.scaled))
	r.set("campaign_days_per_s", "1/s", daysPerUnit/median(phase.scaled().units))
	latencySummary(r, "tables", phase.reads)
}

// timedLoop repeats unit until about seconds have passed and returns each
// unit's wall time; rates are taken from the median unit, so a burst of
// interference that slows one unit does not move them. It starts another
// unit only while the expected end (elapsed plus half the last unit) is
// inside the budget. between, when not nil, runs after every unit outside
// the unit's time (but inside the budget).
func timedLoop(seconds float64, unit, between func() error) ([]float64, error) {
	t0 := time.Now()
	var times []float64
	last := 0.0
	for len(times) == 0 || since(t0)+last/2 < seconds {
		u0 := time.Now()
		if err := unit(); err != nil {
			return times, err
		}
		last = since(u0)
		times = append(times, last)
		if between != nil {
			if err := between(); err != nil {
				return times, err
			}
		}
	}
	return times, nil
}

// liveHeap returns HeapAlloc after two full collections (the second one
// empties the sync.Pool victim caches the first one filled).
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapMB is the difference of two liveHeap readings in MB.
func heapMB(before, after uint64) float64 { return (float64(after) - float64(before)) / 1e6 }

// median of xs (xs is not modified).
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile is the nearest-rank p-th percentile of xs (xs is not
// modified): the smallest sample with at least p % of the samples at or
// below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
func rank(n int, p float64) int {
	k := int(math.Ceil(p*float64(n)/100 - 1e-9)) // 1e-9 absorbs 99.9*n rounding up
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// beyond is the number of samples above the p-th percentile among n.
func beyond(n int, p float64) int { return n - rank(n, p) }

// reportedPercentiles are the tail percentiles a latency summary may use.
var reportedPercentiles = []float64{50, 90, 99, 99.9}

// highestPercentile returns the highest of reportedPercentiles that has at
// least ten samples beyond it among n samples (false when even the median
// has fewer).
func highestPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range reportedPercentiles {
		if beyond(n, p) >= 10 {
			best, ok = p, true
		}
	}
	return best, ok
}

// latencySummary records, as the named metrics, the median and the p90 of
// latencies (milliseconds), and notes the sample count with the highest
// percentile that has ten samples beyond it. Fewer samples than p90 needs
// fail a check.
func latencySummary(r *run, prefix string, lat []float64) {
	n := len(lat)
	r.check(beyond(n, 90) >= 10, "%s: %d samples leave fewer than 10 beyond p90", prefix, n)
	r.set(prefix+"_p50_ms", "ms", percentile(lat, 50))
	r.set(prefix+"_p90_ms", "ms", percentile(lat, 90))
	if p, ok := highestPercentile(n); ok {
		r.notef("%s: %d reads, highest percentile with 10 samples beyond it p%g = %.4g ms",
			prefix, n, p, percentile(lat, p))
	}
}

// closedReads times n back-to-back calls of read after warm untimed ones,
// appending the latencies in milliseconds to out, each scaled by ref when
// ref is not nil.
func closedReads(out []float64, warm, n int, ref *readRef, read func() error) ([]float64, error) {
	for i := 0; i < warm; i++ {
		if err := read(); err != nil {
			return out, fmt.Errorf("warm-up table read %d: %w", i, err)
		}
	}
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := read(); err != nil {
			return out, fmt.Errorf("table read %d: %w", i, err)
		}
		ms := since(t0) * 1e3
		if ref != nil {
			ms = ref.scale(ms)
		}
		out = append(out, ms)
	}
	return out, nil
}
