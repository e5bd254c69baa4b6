package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function. Spans nest through
// parent; every span of one request (a seed, a replay, a piconet) carries
// the id of that request's root span as its run id.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Run    int32  `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil *recorder is a
// valid no-op, which is how the untraced passes run the same code.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span // spans[id-1] is span id
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span under parent (0 opens a root, which starts a new run)
// and returns its id.
func (r *recorder) begin(name string, parent int32) int32 {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	id := int32(len(r.spans) + 1)
	run := id
	if parent > 0 {
		run = r.spans[parent-1].Run
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Run: run, Name: name, Start: now, End: -1})
	r.mu.Unlock()
	return id
}

// end closes span id.
func (r *recorder) end(id int32) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the spans as JSON lines in dir/name.jsonl.
func (r *recorder) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// ledger is the per-name roll-up of a span set: call count, total duration
// and total self time (duration minus the part of it covered by child
// spans), all in nanoseconds.
type ledger map[string]*ledgerRow

type ledgerRow struct {
	Calls int
	Total int64
	Self  int64
}

// row returns the named row (zero when no span had the name).
func (l ledger) row(name string) ledgerRow {
	if r := l[name]; r != nil {
		return *r
	}
	return ledgerRow{}
}

// buildLedger derives self times and checks that every parent's ledger
// closes: each span ended, each child lies inside its parent, and a
// parent's duration equals its self time plus the union of its children.
// Children may overlap (a parent that fans out to goroutines); their union
// is what a parent's self time excludes.
func buildLedger(spans []span) (ledger, error) {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.End < s.Start {
			return nil, fmt.Errorf("span %d (%s) never ended", s.ID, s.Name)
		}
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	l := make(ledger)
	for i := range spans {
		s := &spans[i]
		for _, c := range children[s.ID] {
			if c.Start < s.Start || c.End > s.End {
				return nil, fmt.Errorf("span %d (%s) leaves its parent %d (%s)", c.ID, c.Name, s.ID, s.Name)
			}
		}
		covered := unionLength(children[s.ID])
		self := s.dur() - covered
		if self < 0 {
			return nil, fmt.Errorf("span %d (%s): children cover %d ns of %d", s.ID, s.Name, covered, s.dur())
		}
		row := l[s.Name]
		if row == nil {
			row = &ledgerRow{}
			l[s.Name] = row
		}
		row.Calls++
		row.Total += s.dur()
		row.Self += self
	}
	return l, nil
}

// unionLength is the total length covered by the spans' intervals.
func unionLength(spans []span) int64 {
	if len(spans) == 0 {
		return 0
	}
	iv := make([][2]int64, len(spans))
	for i, s := range spans {
		iv[i] = [2]int64{s.Start, s.End}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total := int64(0)
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
			continue
		}
		if x[1] > hi {
			hi = x[1]
		}
	}
	return total + hi - lo
}

// finishTrace closes a traced run: it builds the ledger (a ledger that does
// not close fails a check), writes the spans and reports the overhead of
// tracing from the same decomposition run with and without spans.
func finishTrace(o options, r *run, rec *recorder, plainRate, tracedRate float64) ledger {
	led, err := buildLedger(rec.snapshot())
	r.check(err == nil, "span ledger: %v", err)
	if path, err := rec.write(spanDir, fmt.Sprintf("%s-seed%d", o.workload, o.seed)); err != nil {
		r.notef("spans not written: %v", err)
	} else {
		r.notef("spans written to %s", path)
	}
	r.set("trace.overhead_share", "ratio", 1-tracedRate/plainRate)
	r.set("trace.days_per_s_delta", "1/s", tracedRate-plainRate)
	return led
}
