package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	btpan "repro"
	"repro/internal/analysis"
	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/workload"
)

// The ingest workload: set-up simulates one two-testbed campaign at a fine
// flush cadence and captures every drain; the timed phase replays the
// drains through two collector.Agents over loopback into an in-memory
// collector.Sink while an open-loop reader GETs /campaigns/tables. The
// collector and the analysis fold do all of the timed work, the simulator
// none.

const (
	ingestDays     = 2
	ingestFlush    = 60 * sim.Second
	ingestScenario = btpan.ScenarioSIRAs
	// readEvery is the open-loop reader's period (25 reads/s leaves well
	// over 100 reads per run for the p90).
	readEvery = 40 * time.Millisecond
	// readersInFlight bounds concurrent reads; a reader that hits it runs
	// late, which the due-time latency counts.
	readersInFlight = 8
	// replayTimeout bounds one replay's Finish and Wait.
	replayTimeout = 60 * time.Second
)

// drain is one captured log drain of one node.
type drain struct {
	node    string
	reports []core.UserReport
	entries []core.SystemEntry
	wm      sim.Time
	seq     uint64
}

// shardCapture is one testbed's captured drains and end state.
type shardCapture struct {
	name     string
	nodes    []string
	drains   []drain
	counters map[string]*workload.Counters
	snaps    map[string]*workload.CountersSnapshot
}

// capture is the ingest workload's input: both testbeds' drains plus the
// report an in-process streaming fold of the same drains renders.
type capture struct {
	cfg       btpan.CampaignConfig
	shards    []*shardCapture
	batches   int
	records   int
	reference []byte
}

// recorderIngest stores drains in order, numbering each node's batches from
// 1 like an agent does, with a span around each call.
type recorderIngest struct {
	sc     *shardCapture
	seqs   map[string]uint64
	rec    *recorder
	parent int32
}

func (c *recorderIngest) Ingest(tb, node string, reports []core.UserReport,
	entries []core.SystemEntry, watermark sim.Time) error {
	id := c.rec.begin("capture.Ingest", c.parent)
	c.seqs[node]++
	c.sc.drains = append(c.sc.drains, drain{node: node, reports: reports, entries: entries,
		wm: watermark, seq: c.seqs[node]})
	c.rec.end(id)
	return nil
}

// captureCampaign simulates the campaign of seed on this goroutine, one
// testbed after the other, capturing every drain, then folds the drains
// in-process into the reference report.
func captureCampaign(seed uint64, duration sim.Time, rec *recorder, counts *simCounts) (*capture, error) {
	c := &capture{cfg: btpan.CampaignConfig{Seed: seed, Duration: duration,
		Scenario: ingestScenario, Streaming: true}}
	randomOpts, realisticOpts := testbed.CampaignOptions(seed, ingestScenario, duration)
	for _, opts := range []testbed.Options{randomOpts, realisticOpts} {
		tb, err := testbed.New(opts)
		if err != nil {
			return nil, err
		}
		sc := &shardCapture{name: opts.Name}
		for _, h := range tb.PANUs {
			sc.nodes = append(sc.nodes, h.Node)
		}
		sc.nodes = append(sc.nodes, tb.NAP.Node)
		root := rec.begin("ingest.capture", 0)
		ing := &recorderIngest{sc: sc, seqs: make(map[string]uint64), rec: rec}
		tb.StreamTo(ing, ingestFlush)
		var ms0, ms1 runtime.MemStats
		if rec != nil {
			runtime.ReadMemStats(&ms0)
		}
		ing.parent = rec.begin("testbed.Run", root)
		tb.Run(duration)
		rec.end(ing.parent)
		if rec != nil {
			runtime.ReadMemStats(&ms1)
			counts.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
			counts.events += int64(tb.World.Executed())
		}
		ing.parent = root
		tb.FinishStream(ing)
		rec.end(root)
		res := tb.Results()
		if counts != nil {
			counts.addCounters(res)
		}
		sc.counters = res.Counters
		sc.snaps = make(map[string]*workload.CountersSnapshot, len(res.Counters))
		for node, k := range res.Counters {
			sc.snaps[node] = k.Snapshot()
		}
		for _, d := range sc.drains {
			c.records += len(d.reports) + len(d.entries)
		}
		c.batches += len(sc.drains)
		c.shards = append(c.shards, sc)
	}
	s, err := analysis.NewStreamer(testbed.CampaignStreamSpec())
	if err != nil {
		return nil, err
	}
	for _, sc := range c.shards {
		for _, d := range sc.drains {
			if err := s.IngestSeq(sc.name, d.node, d.reports, d.entries, d.wm, d.seq); err != nil {
				return nil, err
			}
		}
	}
	_, ref, err := c.report(s.Finalize(), nil)
	if err != nil {
		return nil, err
	}
	c.reference = ref
	return c, nil
}

// report assembles and renders the campaign result of agg with the
// captured counters (counters nil) or the ones a sink received.
func (c *capture) report(agg *analysis.Aggregates,
	counters map[string]map[string]*workload.Counters) (*btpan.CampaignResult, []byte, error) {
	durations := make(map[string]sim.Time, len(c.shards))
	if counters == nil {
		counters = make(map[string]map[string]*workload.Counters, len(c.shards))
		for _, sc := range c.shards {
			counters[sc.name] = sc.counters
		}
	}
	for _, sc := range c.shards {
		durations[sc.name] = c.cfg.Duration
	}
	res, err := btpan.ResultFromAggregates(c.cfg, agg, counters, durations)
	if err != nil {
		return nil, nil, err
	}
	var b bytes.Buffer
	btpan.WriteReport(&b, res)
	return res, b.Bytes(), nil
}

// campaignID is the handshake identity of the captured campaign.
func (c *capture) campaignID() collector.CampaignID {
	return collector.CampaignID{Seed: c.cfg.Seed, Duration: c.cfg.Duration, Scenario: int(c.cfg.Scenario)}
}

// router forwards HTTP requests to the current sink's handler, so one
// server and one reader span every replay.
type router struct{ cur atomic.Pointer[http.Handler] }

// publish routes requests to sink from now on; nil unpublishes.
func (rt *router) publish(sink *collector.Sink) {
	if sink == nil {
		rt.cur.Store(nil)
		return
	}
	h := sink.Handler()
	rt.cur.Store(&h)
}

func (rt *router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h := rt.cur.Load()
	if h == nil {
		http.Error(w, "no sink", http.StatusServiceUnavailable)
		return
	}
	(*h).ServeHTTP(w, r)
}

// replayStats are one replay's transport counters.
type replayStats struct {
	replays                       int
	applied, duplicates, rejected int
	sent                          int
	pendingMax                    int
	wall                          float64
}

// replayed is one replay's outcome: the sink it filled, the campaign
// result assembled from the sink's report, and that result rendered.
type replayed struct {
	sink   *collector.Sink
	res    *btpan.CampaignResult
	report []byte
	stats  replayStats
}

// replay ships the captured drains through two agents into a fresh sink,
// which the router serves from then on (the previous sink is closed once
// the new one is published, and published, when not nil, is called).
func replay(c *capture, rt *router, prev *collector.Sink, rec *recorder, published func()) (replayed, error) {
	var out replayed
	st := &out.stats
	t0 := time.Now()
	root := rec.begin("ingest.replay", 0)
	defer rec.end(root)
	sink, err := collector.NewSink(collector.SinkConfig{
		Addr: "127.0.0.1:0",
		Keyspaces: []collector.KeyspaceConfig{{Campaign: c.campaignID(),
			Spec: testbed.CampaignStreamSpec(), ScenarioName: c.cfg.Scenario.String()}},
	})
	if err != nil {
		return out, err
	}
	out.sink = sink
	rt.publish(sink)
	if prev != nil {
		prev.Close()
	}
	if published != nil {
		published()
	}
	stopSampler := make(chan struct{})
	var samplerWG sync.WaitGroup
	if rec != nil {
		samplerWG.Add(1)
		go func() {
			defer samplerWG.Done()
			tick := time.NewTicker(2 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopSampler:
					return
				case <-tick.C:
					if p := sink.PendingRecords(); p > st.pendingMax {
						st.pendingMax = p
					}
				}
			}
		}()
	}
	errs := make([]error, len(c.shards))
	sent := make([]int, len(c.shards))
	var wg sync.WaitGroup
	for i, sc := range c.shards {
		wg.Add(1)
		go func(i int, sc *shardCapture) {
			defer wg.Done()
			sent[i], errs[i] = ship(c, sc, sink.Addr(), rec, root)
		}(i, sc)
	}
	wg.Wait()
	close(stopSampler)
	samplerWG.Wait()
	for i, err := range errs {
		if err != nil {
			return out, fmt.Errorf("agent %s: %w", c.shards[i].name, err)
		}
		st.sent += sent[i]
	}
	id := rec.begin("collector.Sink.Wait", root)
	rep, err := sink.Wait(replayTimeout)
	rec.end(id)
	if err != nil {
		return out, err
	}
	st.applied, st.duplicates, st.rejected = sink.Stats()
	id = rec.begin("btpan.WriteReport", root)
	out.res, out.report, err = c.report(rep.Agg, rep.Counters)
	rec.end(id)
	st.wall = since(t0)
	return out, err
}

// ship runs one testbed's agent: every captured drain, then Finish.
func ship(c *capture, sc *shardCapture, addr string, rec *recorder, parent int32) (int, error) {
	agent, err := collector.NewAgent(collector.AgentConfig{
		Addr: addr, Campaign: c.campaignID(), Testbed: sc.name, Nodes: sc.nodes,
	})
	if err != nil {
		return 0, err
	}
	defer agent.Close()
	id := rec.begin("collector.Agent.Ingest", parent) // one span over every drain
	for _, d := range sc.drains {
		if err := agent.Ingest(sc.name, d.node, d.reports, d.entries, d.wm); err != nil {
			rec.end(id)
			return 0, err
		}
	}
	rec.end(id)
	id = rec.begin("collector.Agent.Finish", parent)
	err = agent.Finish(sc.snaps, c.cfg.Duration, replayTimeout)
	rec.end(id)
	sent, _ := agent.Stats()
	return sent, err
}

// reader is the open-loop table reader: read i is due at start + phase +
// i*period whatever earlier reads are doing, and its latency is measured
// from that due time.
type reader struct {
	url    string
	client *http.Client
	phase  time.Duration
	stop   chan struct{}
	done   chan struct{}
	wg     sync.WaitGroup

	mu       sync.Mutex
	latency  []float64 // ms from due time to response
	late     []float64 // ms from due time to send
	attempts int
	failures int
}

// newReader builds a reader whose first read is phase-shifted by a draw
// from seed, with room for the samples of about seconds of reading (so the
// sample slices do not grow by a run-dependent amount).
func newReader(url string, seed uint64, seconds float64) *reader {
	rng := rand.New(rand.NewPCG(seed, 0x7265616465))
	n := int(seconds*float64(time.Second)/float64(readEvery)) + 64
	return &reader{
		url:     url,
		latency: make([]float64, 0, n),
		late:    make([]float64, 0, n),
		client: &http.Client{Timeout: replayTimeout, Transport: &http.Transport{
			Proxy: nil, MaxIdleConnsPerHost: readersInFlight, DisableCompression: true,
		}},
		phase: time.Duration(rng.Int64N(int64(readEvery))),
	}
}

// start begins reading (once; later calls do nothing); stopAndWait ends
// it.
func (rd *reader) start() {
	if rd.stop != nil {
		return
	}
	rd.stop, rd.done = make(chan struct{}), make(chan struct{})
	go rd.schedule(time.Now())
}

func (rd *reader) schedule(start time.Time) {
	defer close(rd.done)
	sem := make(chan struct{}, readersInFlight)
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for i := 0; ; i++ {
		due := start.Add(rd.phase + time.Duration(i)*readEvery)
		timer.Reset(time.Until(due))
		select {
		case <-rd.stop:
			return
		case <-timer.C:
		}
		select {
		case <-rd.stop:
			return
		case sem <- struct{}{}:
		}
		rd.wg.Add(1)
		go func(due time.Time) {
			defer rd.wg.Done()
			defer func() { <-sem }()
			sent := time.Now()
			ok := rd.get()
			doneAt := time.Now()
			rd.mu.Lock()
			rd.attempts++
			if !ok {
				rd.failures++
			} else {
				rd.latency = append(rd.latency, doneAt.Sub(due).Seconds()*1e3)
				rd.late = append(rd.late, sent.Sub(due).Seconds()*1e3)
			}
			rd.mu.Unlock()
		}(due)
	}
}

// get performs one read; any transport error or non-200 answer fails it.
func (rd *reader) get() bool {
	resp, err := rd.client.Get(rd.url)
	if err != nil {
		return false
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return err == nil && resp.StatusCode == http.StatusOK
}

// stopAndWait stops scheduling and waits for every read in flight.
func (rd *reader) stopAndWait() {
	if rd.stop == nil {
		return
	}
	close(rd.stop)
	<-rd.done
	rd.wg.Wait()
	rd.client.CloseIdleConnections()
}

// reset clears the samples (between the phases of a traced run).
func (rd *reader) reset() {
	rd.mu.Lock()
	rd.latency, rd.late, rd.attempts, rd.failures = rd.latency[:0], rd.late[:0], 0, 0
	rd.mu.Unlock()
}

// server is the HTTP front of the replays.
type server struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

// newServer serves rt on a loopback port.
func newServer(rt *router) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: &http.Server{Handler: rt}, done: make(chan struct{}),
		url: "http://" + ln.Addr().String() + "/campaigns/tables"}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	return s, nil
}

// close stops the server and waits for its accept loop.
func (s *server) close() {
	s.srv.Close()
	<-s.done
}

// ingestBench is one ingest run's state after set-up.
type ingestBench struct {
	cap       *capture
	rt        *router
	sink      *collector.Sink // the sink the router serves
	srv       *server         // nil until serve
	published func()          // called once each replay's sink is published
}

// serve starts the HTTP front.
func (b *ingestBench) serve() error {
	srv, err := newServer(b.rt)
	b.srv = srv
	return err
}

// close stops the server and closes and drops the last sink.
func (b *ingestBench) close() {
	if b.srv != nil {
		b.srv.close()
		b.srv = nil
	}
	b.rt.publish(nil)
	if b.sink != nil {
		b.sink.Close()
		b.sink = nil
	}
}

// setupIngest captures the timed campaign and warms the replay path up on
// a short campaign of another seed.
func setupIngest(set seedSet, rec *recorder, counts *simCounts) (*ingestBench, error) {
	c, err := captureCampaign(set.Base, ingestDays*btpan.Day, rec, counts)
	if err != nil {
		return nil, err
	}
	warm, err := captureCampaign(warmupSeed, btpan.Day/4, nil, nil)
	if err != nil {
		return nil, err
	}
	b := &ingestBench{cap: c, rt: &router{}}
	out, err := replay(warm, b.rt, nil, nil, nil)
	b.sink = out.sink
	if err == nil && !bytes.Equal(out.report, warm.reference) {
		err = fmt.Errorf("warm-up replay report differs from the in-process fold")
	}
	b.close()
	if err != nil {
		return nil, err
	}
	return b, nil
}

// keptReplays is how many of the latest replays, each a closed sink and its
// result, are still referenced when the timed phase ends. A finished sink's
// retained state varies by tens of KB with how far one agent ran ahead of
// the other, so live_heap_mb is read over several and divided by their
// count.
const keptReplays = 16

// replayLoop replays for about seconds, checking every replay's report
// against the in-process fold, and calls between, when not nil, after each
// replay. It returns each replay's wall time and the last keptReplays
// replays.
func (b *ingestBench) replayLoop(r *run, seconds float64, rec *recorder,
	stats *replayStats, between func() error) ([]float64, []replayed, error) {
	kept := make([]replayed, 0, keptReplays)
	times, err := timedLoop(seconds, func() error {
		out, err := replay(b.cap, b.rt, b.sink, rec, b.published)
		if out.sink != nil {
			b.sink = out.sink
		}
		st := out.stats
		if err != nil {
			r.ops(b.cap.batches, b.cap.batches)
			return err
		}
		missing := b.cap.batches - st.applied
		if missing < 0 {
			missing = 0
		}
		r.ops(b.cap.batches, missing)
		r.check(bytes.Equal(out.report, b.cap.reference), "sink report differs from the in-process streaming fold")
		stats.replays++
		stats.duplicates += st.duplicates
		stats.rejected += st.rejected
		stats.sent += st.sent
		stats.applied += st.applied
		stats.wall += st.wall
		if st.pendingMax > stats.pendingMax {
			stats.pendingMax = st.pendingMax
		}
		out.report = nil
		if len(kept) < keptReplays {
			kept = append(kept, out)
		} else {
			kept[stats.replays%keptReplays] = out
		}
		return nil
	}, between)
	return times, kept, err
}

// readerResults counts the reader's operations and returns its samples.
func readerResults(r *run, rd *reader) (latency, late []float64) {
	rd.mu.Lock()
	defer rd.mu.Unlock()
	r.ops(rd.attempts, rd.failures)
	return append([]float64(nil), rd.latency...), append([]float64(nil), rd.late...)
}

// runIngest measures the end-to-end metrics of the ingest workload.
func runIngest(o options, r *run) error {
	var b *ingestBench
	clock, err := newHostClock()
	if err != nil {
		return err
	}
	setup, err := setupRepeated(clock, func() error {
		if b != nil {
			b.close()
		}
		var err error
		b, err = setupIngest(o.seeds, nil, nil)
		return err
	})
	if err != nil {
		return fmt.Errorf("ingest setup: %w", err)
	}
	defer b.close()

	// The heap is read with no connection open at either edge: the server
	// starts after the first reading, and every goroutine the timed phase
	// started has exited before the second, while the last keptReplays
	// sinks, closed, and their results are still referenced. The reader starts once the
	// first timed replay has published its sink, so every read has a sink
	// to answer it.
	var stats replayStats
	g0 := runtime.NumGoroutine()
	h0 := liveHeap()
	if err := b.serve(); err != nil {
		return err
	}
	rd := newReader(b.srv.url, o.seed, o.seconds)
	b.published = rd.start
	// The reader runs for the whole phase, so the replays are scaled by the
	// read reference, sampled before the first replay and after each.
	speed, err := newReadRef()
	if err != nil {
		return err
	}
	phase := timedPhase{ref: []float64{speed.sample()}, nominal: readRefNominal}
	var kept []replayed
	phase.units, kept, err = b.replayLoop(r, o.seconds, nil, &stats, func() error {
		phase.ref = append(phase.ref, speed.sample())
		return nil
	})
	rd.stopAndWait()
	b.published = nil
	if err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	b.close()
	r.check(waitGoroutines(g0), "goroutines of the timed phase still running")
	r.check(stats.duplicates == 0 && stats.rejected == 0,
		"sink saw %d duplicate and %d rejected batches on a clean network", stats.duplicates, stats.rejected)
	lat, late := readerResults(r, rd)
	r.notef("ingest: %d batches per replay, reader p90 lateness %.3g ms", b.cap.batches, percentile(late, 90))
	phase.reads = lat
	reportEndToEnd(r, setup, ingestDays, phase)
	h1 := liveHeap()
	runtime.KeepAlive(kept)
	r.set("live_heap_mb", "MB", heapMB(h0, h1)/float64(len(kept)))
	return nil
}

// traceIngest measures the ingest workload's per-layer ledger.
func traceIngest(o options, r *run) error {
	rec := newRecorder()
	var counts simCounts
	b, err := setupIngest(o.seeds, rec, &counts)
	if err != nil {
		return fmt.Errorf("ingest setup: %w", err)
	}
	defer b.close()
	c := b.cap
	capture := rec.snapshot()
	capLedger, err := buildLedger(capture)
	r.check(err == nil, "capture span ledger: %v", err)
	setSimLayers(r, capLedger.row("testbed.Run"), counts, ingestDays)

	// Plain and traced replays, each for half the run, under the reader.
	if err := b.serve(); err != nil {
		return err
	}
	rd := newReader(b.srv.url, o.seed, o.seconds)
	b.published = rd.start
	var plain, traced replayStats
	plainTimes, _, err := b.replayLoop(r, o.seconds/2, nil, &plain, nil)
	if err != nil {
		rd.stopAndWait()
		return fmt.Errorf("ingest: %w", err)
	}
	lat, late := readerResults(r, rd)
	rd.reset()
	tracedTimes, _, err := b.replayLoop(r, o.seconds/2, rec, &traced, nil)
	rd.stopAndWait()
	if err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	readerResults(r, rd)

	// Busy time of a read: the same HTTP read on the last, quiescent sink.
	client := &http.Client{Transport: &http.Transport{Proxy: nil}}
	busy, err := closedReads(nil, readsWarm, 50, nil, func() error {
		resp, err := client.Get(b.srv.url)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %s", resp.Status)
		}
		return nil
	})
	client.CloseIdleConnections()
	if err != nil {
		return err
	}

	codec, err := codecLedger(r, c, rec)
	if err != nil {
		return err
	}
	led := finishTrace(o, r, rec, ingestDays/median(plainTimes), ingestDays/median(tracedTimes))

	perReplay := plain.wall / float64(plain.replays)
	fold := float64(led.row("analysis.Streamer.IngestSeq").Total) / 1e9
	enc := float64(led.row("collector.WriteBatchCodec").Total) / 1e9
	dec := float64(led.row("collector.ReadBatch").Total) / 1e9
	batches := float64(c.batches)
	r.set("analysis.ingest_us_per_drain", "us", codec.refFold/batches*1e6)
	r.set("analysis.ingest_share", "ratio", codec.refFold/perReplay)
	r.set("analysis.finalize_ms", "ms", meanMS(led.row("analysis.Streamer.Finalize")))
	r.set("analysis.pending_max", "count", float64(codec.pendingMax))
	r.set("collector.encode_us_per_batch", "us", enc/batches*1e6)
	r.set("collector.decode_us_per_batch", "us", dec/batches*1e6)
	r.set("collector.bytes_per_batch", "B", float64(codec.bytes)/batches)
	r.set("collector.fold_us_per_batch", "us", fold/batches*1e6)
	r.set("collector.transport_share", "ratio", (perReplay-enc-dec-fold)/perReplay)
	r.set("collector.batches", "count", batches)
	r.set("collector.records", "count", float64(c.records))
	r.set("collector.useful_ratio", "ratio", float64(plain.applied+traced.applied)/float64(plain.sent+traced.sent))
	r.set("collector.duplicates", "count", float64(plain.duplicates+traced.duplicates))
	r.set("collector.rejected", "count", float64(plain.rejected+traced.rejected))
	r.set("collector.sink_pending_max", "count", float64(traced.pendingMax))
	r.set("collector.live_tables_busy_ms", "ms", median(busy))
	r.set("collector.live_tables_wait_ms", "ms", median(lat)-median(busy))
	r.set("collector.reads_late_ms", "ms", percentile(late, 90))
	r.set("btpan.report_ms", "ms", meanMS(led.row("btpan.WriteReport")))
	r.set("failed_share", "ratio", share(r.failed, r.attempted))
	return nil
}

// codecResult is what the offline codec and fold passes measured.
type codecResult struct {
	bytes      int
	refFold    float64 // seconds of Streamer.IngestSeq on the captured drains
	pendingMax int
}

// codecLedger times the collector's layers on the captured drains with no
// network: WriteBatchCodec of every drain, ReadBatch of every frame, and
// Streamer.IngestSeq of the decoded batches (the sink's apply step), whose
// report must equal the reference. It also times the reference fold of the
// raw drains.
func codecLedger(r *run, c *capture, rec *recorder) (codecResult, error) {
	var out codecResult
	var buf bytes.Buffer
	id := rec.begin("collector.WriteBatchCodec", 0)
	for _, sc := range c.shards {
		for _, d := range sc.drains {
			b := &collector.Batch{Node: d.node, Testbed: sc.name, Reports: d.reports,
				Entries: d.entries, Watermark: d.wm, Seq: d.seq}
			if err := collector.WriteBatchCodec(&buf, b, collector.CodecBinary); err != nil {
				return out, err
			}
		}
	}
	rec.end(id)
	out.bytes = buf.Len()
	decoded := make([]*collector.Batch, 0, c.batches)
	id = rec.begin("collector.ReadBatch", 0)
	for {
		b, err := collector.ReadBatch(&buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			return out, err
		}
		decoded = append(decoded, b)
	}
	rec.end(id)
	r.check(len(decoded) == c.batches, "decoded %d of %d batches", len(decoded), c.batches)

	s, err := analysis.NewStreamer(testbed.CampaignStreamSpec())
	if err != nil {
		return out, err
	}
	id = rec.begin("analysis.Streamer.IngestSeq", 0)
	for _, b := range decoded {
		if err := s.IngestSeq(b.Testbed, b.Node, b.Reports, b.Entries, b.Watermark, b.Seq); err != nil {
			return out, err
		}
	}
	rec.end(id)
	id = rec.begin("analysis.Streamer.Finalize", 0)
	agg := s.Finalize()
	rec.end(id)
	_, rep, err := c.report(agg, nil)
	if err != nil {
		return out, err
	}
	r.check(bytes.Equal(rep, c.reference), "fold of decoded batches differs from the reference fold")

	// The reference fold of the raw drains, each call timed, with the
	// backlog sampled outside the timed calls once per drain round.
	s, err = analysis.NewStreamer(testbed.CampaignStreamSpec())
	if err != nil {
		return out, err
	}
	for _, sc := range c.shards {
		nap := sc.nodes[len(sc.nodes)-1]
		for _, d := range sc.drains {
			t0 := time.Now()
			err := s.IngestSeq(sc.name, d.node, d.reports, d.entries, d.wm, d.seq)
			out.refFold += since(t0)
			if err != nil {
				return out, err
			}
			if d.node == nap {
				if p := s.Pending(); p > out.pendingMax {
					out.pendingMax = p
				}
			}
		}
	}
	s.Finalize()
	return out, nil
}
