package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestHighestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 15, ok: false},
		{n: 20, want: 50, ok: true},
		{n: 99, want: 50, ok: true},
		{n: 100, want: 90, ok: true},
		{n: 999, want: 90, ok: true},
		{n: 1000, want: 99, ok: true},
		{n: 10000, want: 99.9, ok: true},
	} {
		got, ok := highestPercentile(tc.n)
		if ok != tc.ok || got != tc.want {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok && beyond(tc.n, got) < 10 {
			t.Errorf("n=%d: p%v has only %d samples beyond it", tc.n, got, beyond(tc.n, got))
		}
	}
	xs := []float64{5, 1, 4, 2, 3}
	if p := percentile(xs, 50); p != 3 {
		t.Errorf("median of 1..5 = %v, want 3", p)
	}
	if p := percentile(xs, 90); p != 5 {
		t.Errorf("p90 of 1..5 = %v, want 5", p)
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

func TestLatencySummaryFailsWithoutTailSamples(t *testing.T) {
	r := newRun()
	latencySummary(r, "tables", make([]float64, 99))
	if r.failed != 1 {
		t.Errorf("99 samples: %d failed checks, want 1 (p90 needs 10 samples beyond it)", r.failed)
	}
	r = newRun()
	latencySummary(r, "tables", make([]float64, 100))
	if r.failed != 0 {
		t.Errorf("100 samples: %d failed checks, want 0", r.failed)
	}
}

// TestDueTimeLatencyCountsStall stalls every read for the first 600 ms.
// Once readersInFlight reads are stuck, the open-loop reader can send the
// next ones only late; their latency, taken from the due time, must
// include that lateness, which a latency taken from the send time would
// hide.
func TestDueTimeLatencyCountsStall(t *testing.T) {
	gate := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-gate
	}))
	defer srv.Close()
	rd := newReader(srv.URL, 1, 1)
	rd.start()
	time.Sleep(600 * time.Millisecond)
	close(gate)
	time.Sleep(200 * time.Millisecond)
	rd.stopAndWait()

	if rd.failures != 0 {
		t.Fatalf("%d reads failed", rd.failures)
	}
	maxLate := 0.0
	for i, late := range rd.late {
		if rd.latency[i] < late {
			t.Errorf("read %d: latency %.1f ms below its lateness %.1f ms", i, rd.latency[i], late)
		}
		if late > maxLate {
			maxLate = late
		}
	}
	// The first blocked send is due at readersInFlight*readEvery (about
	// 320 ms) and cannot leave before the gate opens at 600 ms.
	if maxLate < 150 {
		t.Errorf("largest lateness %.1f ms; the stalled handler should have delayed sends by over 150 ms", maxLate)
	}
	if p := percentile(rd.latency, 90); p < maxLate {
		t.Errorf("p90 latency %.1f ms is below the lateness %.1f ms it must include", p, maxLate)
	}
}

func TestSelfTimeExcludesNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "leaf", Start: 20, End: 30},
		{ID: 4, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a: a fan-out
		{ID: 5, Parent: 1, Name: "c", Start: 80, End: 90},
		{ID: 6, Name: "c", Start: 200, End: 205},
	}
	led, err := buildLedger(spans)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]ledgerRow{
		"root": {Calls: 1, Total: 100, Self: 40}, // children cover [10,60] and [80,90]
		"a":    {Calls: 1, Total: 30, Self: 20},
		"leaf": {Calls: 1, Total: 10, Self: 10},
		"b":    {Calls: 1, Total: 30, Self: 30},
		"c":    {Calls: 2, Total: 15, Self: 15},
	} {
		if got := led.row(name); got != want {
			t.Errorf("%s: %+v, want %+v", name, got, want)
		}
	}
	if got := led.row("absent"); got != (ledgerRow{}) {
		t.Errorf("absent row %+v, want zero", got)
	}

	escaped := append(append([]span(nil), spans...), span{ID: 7, Parent: 5, Name: "late", Start: 85, End: 95})
	if _, err := buildLedger(escaped); err == nil {
		t.Error("a child outliving its parent must not close the ledger")
	}
	open := append(append([]span(nil), spans...), span{ID: 7, Parent: 1, Name: "open", Start: 95, End: -1})
	if _, err := buildLedger(open); err == nil {
		t.Error("a span that never ended must not close the ledger")
	}
}

func TestRecorderNestsRunsAndNilIsNoOp(t *testing.T) {
	var off *recorder
	if id := off.begin("x", 0); id != 0 {
		t.Errorf("nil recorder returned span id %d", id)
	}
	off.end(0)

	rec := newRecorder()
	a := rec.begin("a", 0)
	b := rec.begin("b", a)
	rec.end(b)
	rec.end(a)
	c := rec.begin("c", 0)
	rec.end(c)
	spans := rec.snapshot()
	if spans[1].Run != a || spans[2].Run != c {
		t.Errorf("run ids %d and %d, want %d and %d", spans[1].Run, spans[2].Run, a, c)
	}
	if _, err := buildLedger(spans); err != nil {
		t.Error(err)
	}
}

func TestOneByteReportChangeFailsDigest(t *testing.T) {
	report := "Table 2 (error-failure relationship)\nconnect  41.2%\n"
	storedDigests["test/report"] = digest(report)
	defer delete(storedDigests, "test/report")

	r := newRun()
	checkDigest(r, "test/report", report)
	if r.failed != 0 {
		t.Fatalf("unchanged report failed its digest check: %v", r.notes)
	}
	changed := []byte(report)
	changed[len(changed)-3] ^= 1
	checkDigest(r, "test/report", string(changed))
	if r.attempted != 2 || r.failed != 1 {
		t.Errorf("one flipped byte: %d of %d checks failed, want 1 of 2", r.failed, r.attempted)
	}
	checkDigest(r, "test/none", report)
	if r.failed != 2 {
		t.Error("a report without a stored digest must fail its check")
	}
}

func TestParseArgsRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nosuch"},
		{"--workload", "sweep", "--trace", "2"},
		{"--workload", "sweep", "--seconds", "0"},
		{"--workload", "sweep", "--seeds", "other"},
		{"--workload", "sweep", "extra"},
	} {
		if _, err := parseArgs(args); err == nil {
			t.Errorf("%v: accepted", args)
		}
	}
	o, err := parseArgs([]string{"--workload", "metro", "--seed", "7", "--seconds", "10", "--trace", "1"})
	if err != nil || !o.trace || o.seed != 7 || o.seeds.Name != "dev" {
		t.Errorf("valid arguments: %+v, %v", o, err)
	}
}

// benchmarkJSON is the part of BENCHMARK.json the catalogue must match.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	sameDefs(t, "end_to_end", b.EndToEnd, endToEndDefs)
	sameDefs(t, "per_layer", b.PerLayer, perLayerDefs)
	var got, want []string
	for _, w := range b.Workloads {
		got = append(got, w.Name)
	}
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", got, want)
	}

	var m struct {
		PerLayer map[string]json.RawMessage `json:"per_layer"`
		EndToEnd map[string]json.RawMessage `json:"end_to_end"`
	}
	blob, err = os.ReadFile("manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	for _, d := range perLayerDefs {
		if _, ok := m.PerLayer[d.Name]; !ok {
			t.Errorf("manifest.json does not map per-layer metric %s", d.Name)
		}
		if len(measuredOn[d.Name]) == 0 {
			t.Errorf("manifest.json measures %s on no workload", d.Name)
		}
		for _, w := range measuredOn[d.Name] {
			if _, ok := workloads[w]; !ok {
				t.Errorf("manifest.json measures %s on unknown workload %q", d.Name, w)
			}
		}
	}
	for _, d := range endToEndDefs {
		if _, ok := m.EndToEnd[d.Name]; !ok {
			t.Errorf("manifest.json does not define end-to-end metric %s", d.Name)
		}
	}
	if len(m.PerLayer) != len(perLayerDefs) || len(m.EndToEnd) != len(endToEndDefs) {
		t.Errorf("manifest.json maps %d+%d metrics, the catalogue declares %d+%d",
			len(m.EndToEnd), len(m.PerLayer), len(endToEndDefs), len(perLayerDefs))
	}
}

// sameDefs compares declared metric definitions in order.
func sameDefs(t *testing.T, what string, got, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: BENCHMARK.json declares %d metrics, the benchmark %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", what, i, got[i], want[i])
		}
	}
}

func TestCompleteLedgerFollowsManifest(t *testing.T) {
	// A metro run that set exactly its layers passes; the others read 0.
	r := newRun()
	for _, d := range perLayerDefs {
		if slices.Contains(measuredOn[d.Name], "metro") {
			r.set(d.Name, d.Unit, 1)
		}
	}
	if err := completeLedger(r, "metro"); err != nil {
		t.Fatal(err)
	}
	if len(r.metrics) != len(perLayerDefs) {
		t.Errorf("%d per-layer metrics after completion, want %d", len(r.metrics), len(perLayerDefs))
	}
	if v := r.metrics["collector.batches"].Value; v != 0 {
		t.Errorf("collector.batches on metro = %v, want 0", v)
	}

	// A layer metric the manifest does not measure on metro must not be set,
	// and one it does must be.
	r.set("collector.batches", "count", 5)
	if err := completeLedger(r, "metro"); err == nil {
		t.Error("metro run that set collector.batches passed")
	}
	r = newRun()
	if err := completeLedger(r, "metro"); err == nil {
		t.Error("metro run that set none of its layers passed")
	}
}

func TestHostReferenceAllocatesNothing(t *testing.T) {
	w, err := newRefWork()
	if err != nil {
		t.Fatal(err)
	}
	w.run()
	if n := testing.AllocsPerRun(3, w.run); n != 0 {
		t.Errorf("the host reference allocates %v times per run; it must allocate nothing", n)
	}
	rw, err := newReadRef()
	if err != nil {
		t.Fatal(err)
	}
	rw.run()
	if n := testing.AllocsPerRun(10, func() { rw.scale(1) }); n != 0 {
		t.Errorf("the read reference allocates %v times per read; it must allocate nothing", n)
	}
}

func TestPhaseScalesEachUnitAndNotTheReads(t *testing.T) {
	phase := timedPhase{
		units:   []float64{2, 3},
		ref:     []float64{0.1, 0.3, 0.1}, // unit 0 ran at half the nominal speed, unit 1 too
		reads:   []float64{4, 4, 8, 1, 2, 9},
		nominal: 0.1,
	}
	sc := phase.scaled()
	for i, want := range []float64{1, 1.5} {
		if math.Abs(sc.units[i]-want) > 1e-12 {
			t.Errorf("scaled unit %d = %v, want %v", i, sc.units[i], want)
		}
	}
	if got := sc.reads[5]; got != 9 {
		t.Errorf("read = %v after unit scaling, want 9: reads are scaled by their own reference", got)
	}
	if phase.units[0] != 2 {
		t.Error("scaling modified the measured phase")
	}
	raw := timedPhase{units: []float64{2}, reads: []float64{3}}
	if sc := raw.scaled(); sc.units[0] != 2 || sc.reads[0] != 3 {
		t.Error("a phase without reference samples must be reported as measured")
	}
}
