package collector

import (
	"net"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The wire suite pins the record-plane session's hot path: coalesced
// acknowledgements (one cumulative Ack per stream per read burst), a
// healthy backlog that never trips the stall retransmission, right-sized
// spill frames, and sessions that do not outlive their connection.

// wireNodes are the streams of tpSpec's alpha testbed.
var wireNodes = []string{"a1", "a2", "napA"}

// wireSpec declares alpha alone, so one agent completes the campaign.
func wireSpec() analysis.StreamSpec {
	return analysis.StreamSpec{Testbeds: tpSpec().Testbeds[:1]}
}

// wireDrain is drain i of a round-robin over wireNodes: an empty drain
// whose watermark advances one second per round — the size of most
// captured drains at a fine flush cadence.
func wireDrain(i int) (node string, wm sim.Time) {
	return wireNodes[i%len(wireNodes)], sim.Time(i/len(wireNodes)+1) * sim.Second
}

// wireCounters is the Done counters map for alpha.
func wireCounters() map[string]*workload.CountersSnapshot {
	return map[string]*workload.CountersSnapshot{"a1": tpCounters("a1"), "a2": tpCounters("a2")}
}

// TestHealthySessionBurst ingests a 20 000-batch backlog before the sink can
// acknowledge anything (the keyspace is registered only afterwards), then
// finishes against a non-checkpointing sink. Coalesced acks must keep the
// backlog moving: no stall retransmission, no duplicate at the sink.
func TestHealthySessionBurst(t *testing.T) {
	const batches = 20000
	campaign := CampaignID{Seed: 13, Duration: sim.Hour, Scenario: 1}
	sink, err := NewSink(SinkConfig{Addr: "127.0.0.1:0", AllowEmpty: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	a, err := NewAgent(AgentConfig{Addr: sink.Addr(), Campaign: campaign, Keyspace: "k",
		Testbed: "alpha", Nodes: wireNodes, RetryMin: 5 * time.Millisecond, RetryMax: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for i := 0; i < batches; i++ {
		node, wm := wireDrain(i)
		if err := a.Ingest("alpha", node, nil, nil, wm); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Register(KeyspaceConfig{Key: "k", Campaign: campaign, Spec: wireSpec()}); err != nil {
		t.Fatal(err)
	}
	if err := a.Finish(wireCounters(), sim.Hour, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := sink.WaitKeyspace("k", 30*time.Second); err != nil {
		t.Fatal(err)
	}
	sent, retransmits := a.Stats()
	applied, duplicates, rejected := sink.Stats()
	if sent != batches || retransmits != 0 {
		t.Errorf("agent sent %d frames with %d retransmits, want %d and 0", sent, retransmits, batches)
	}
	if applied != batches || duplicates != 0 || rejected != 0 {
		t.Errorf("sink applied %d, %d duplicates, %d rejected; want %d, 0, 0",
			applied, duplicates, rejected, batches)
	}
}

// wireFrames encodes batches [from, to) of the wireDrain sequence as alpha
// data frames with their sequence numbers.
func wireFrames(t *testing.T, from, to int) []byte {
	t.Helper()
	var out []byte
	for i := from; i < to; i++ {
		node, wm := wireDrain(i)
		var err error
		out, err = appendBatchFrame(out, &Batch{Node: node, Testbed: "alpha",
			Watermark: wm, Seq: uint64(i/len(wireNodes) + 1)}, CodecBinary)
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// wireAck is one received frame: an Ack, or Fin when fin is set.
type wireAck struct {
	ack Ack
	fin bool
}

// readAcks collects the sink's frames on conn until Fin, an error or EOF,
// publishing each on the returned channel.
func readAcks(conn net.Conn) <-chan wireAck {
	// Room for one Ack per frame of the largest test backlog, so the reader
	// never stalls the sink's writes while the test is still writing.
	ch := make(chan wireAck, 1<<16)
	go func() {
		defer close(ch)
		for {
			fr, err := ReadFrame(conn)
			if err != nil {
				return
			}
			switch fr.Kind {
			case KindAck:
				ch <- wireAck{ack: *fr.Ack}
			case KindFin:
				ch <- wireAck{fin: true}
				return
			default:
				return
			}
		}
	}()
	return ch
}

// TestSinkCoalescesAcks drives a raw agent that writes a 20 000-frame
// backlog and its Done in one go. The sink must answer with far fewer acks
// than frames, and the acks covering every stream's last frame must go out
// before Fin.
func TestSinkCoalescesAcks(t *testing.T) {
	const batches = 6667 * 3 // whole rounds over wireNodes
	sink, err := NewSink(SinkConfig{Addr: "127.0.0.1:0", Spec: tpSpec()})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	conn, _ := rawSession(t, sink.Addr(), "", CampaignID{}, "alpha")
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	acks := readAcks(conn)

	final := uint64(batches / len(wireNodes))
	done := &Done{Testbed: "alpha", Duration: sim.Hour, Counters: wireCounters()}
	for _, node := range wireNodes {
		done.Final = append(done.Final, StreamCursor{Node: node, Seq: final})
	}
	burst, err := appendControl(wireFrames(t, 0, batches), frameDone, done)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}

	n, fin := 0, false
	last := make(map[string]uint64)
	for fr := range acks {
		if fr.fin {
			fin = true
			break
		}
		n++
		last[fr.ack.Node] = fr.ack.Seq
	}
	if !fin {
		t.Fatal("session ended without Fin")
	}
	for _, node := range wireNodes {
		if last[node] != final {
			t.Errorf("stream %s: last ack before Fin covers seq %d, want %d", node, last[node], final)
		}
	}
	if n*8 > batches {
		t.Errorf("sink sent %d acks for %d frames; acks are not coalesced", n, batches)
	}
	if _, dups, rejected := sink.Stats(); dups != 0 || rejected != 0 {
		t.Errorf("sink saw %d duplicates and %d rejects on a clean session", dups, rejected)
	}
}

// TestSinkFlushesAcksBeforeBlocking writes whole frames followed by half of
// the next one: the sink must acknowledge the whole frames while it waits
// for the rest, not hold the ack until its burst fills.
func TestSinkFlushesAcksBeforeBlocking(t *testing.T) {
	sink, err := NewSink(SinkConfig{Addr: "127.0.0.1:0", Spec: tpSpec()})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	conn, _ := rawSession(t, sink.Addr(), "", CampaignID{}, "alpha")
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	acks := readAcks(conn)

	// Five rounds over the three streams, then half of round six's first
	// frame (a1, seq 6).
	whole := wireFrames(t, 0, 5*len(wireNodes))
	next := wireFrames(t, 5*len(wireNodes), 5*len(wireNodes)+1)
	half := len(next) / 2
	if _, err := conn.Write(append(whole, next[:half]...)); err != nil {
		t.Fatal(err)
	}
	acked := make(map[string]uint64)
	for acked["a1"] < 5 || acked["a2"] < 5 || acked["napA"] < 5 {
		fr, ok := <-acks
		if !ok || fr.fin {
			t.Fatalf("no ack for the whole frames while the next one is partial (acked %v)", acked)
		}
		if fr.ack.Seq > 5 {
			t.Fatalf("ack %+v covers the partial frame", fr.ack)
		}
		acked[fr.ack.Node] = fr.ack.Seq
	}
	if _, err := conn.Write(next[half:]); err != nil {
		t.Fatal(err)
	}
	for fr := range acks {
		if fr.ack.Node == "a1" && fr.ack.Seq == 6 {
			return
		}
	}
	t.Fatal("completed frame was never acknowledged")
}

// TestCheckpointingSinkAcksOnlyCovered: a coalesced ack carries only what
// the sink's latest checkpoint covers, never the applied-but-uncheckpointed
// tail of the burst.
func TestCheckpointingSinkAcksOnlyCovered(t *testing.T) {
	sink, err := NewSink(SinkConfig{Addr: "127.0.0.1:0", Spec: tpSpec(),
		CheckpointPath: filepath.Join(t.TempDir(), "sink.ckpt"), CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	conn, _ := rawSession(t, sink.Addr(), "", CampaignID{}, "alpha")
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	acks := readAcks(conn)

	// Six frames of a1: the checkpoint after the fourth covers seqs 1..4.
	var frames []byte
	for seq := uint64(1); seq <= 6; seq++ {
		frames, err = appendBatchFrame(frames, &Batch{Node: "a1", Testbed: "alpha",
			Watermark: sim.Time(seq) * sim.Second, Seq: seq}, CodecBinary)
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(frames); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "six frames applied", func() bool {
		applied, _, _ := sink.Stats()
		return applied == 6
	})
	var best uint64
	quiet := time.After(200 * time.Millisecond)
collect:
	for {
		select {
		case fr, ok := <-acks:
			if !ok {
				break collect
			}
			best = max(best, fr.ack.Seq)
		case <-quiet:
			break collect
		}
	}
	if best != 4 {
		t.Fatalf("acks reached seq %d; the checkpoint covers 4", best)
	}
}

// sinkSessions counts the record-plane sessions the sink's keyspaces hold.
func sinkSessions(s *Sink) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, t := range s.tenants {
		n += len(t.sessions)
	}
	return n
}

// sinkConns counts the sink's live connections.
func sinkConns(s *Sink) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// TestSinkForgetsEndedSessions: a session whose connection is gone must not
// stay reachable from its keyspace — neither after a finished campaign nor
// when an older session of a testbed ends after a newer one replaced it.
func TestSinkForgetsEndedSessions(t *testing.T) {
	sink, err := NewSink(SinkConfig{Addr: "127.0.0.1:0", Spec: tpSpec()})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	old, _ := rawSession(t, sink.Addr(), "", CampaignID{}, "alpha")
	newer, _ := rawSession(t, sink.Addr(), "", CampaignID{}, "alpha")
	old.Close()
	waitUntil(t, 5*time.Second, "the old session to end", func() bool { return sinkConns(sink) == 1 })
	if n := sinkSessions(sink); n != 1 {
		t.Fatalf("an ended older session dropped its newer replacement: %d sessions held", n)
	}
	newer.Close()
	waitUntil(t, 5*time.Second, "the newer session to end", func() bool { return sinkConns(sink) == 0 })

	agents := tpAgents(t, sink.Addr(), tpBatches(4), FaultConfig{})
	if _, err := sink.Wait(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, a := range agents {
		a.Close()
	}
	waitUntil(t, 5*time.Second, "the finished sessions to end", func() bool { return sinkConns(sink) == 0 })
	if n := sinkSessions(sink); n != 0 {
		t.Fatalf("a finished sink still holds %d ended sessions", n)
	}
}

// TestAgentSpillFramesRightSized: every buffered spill frame's backing
// array is the frame's own size, so SpillBudget (counted from frame
// lengths) bounds the agent's memory too.
func TestAgentSpillFramesRightSized(t *testing.T) {
	a, err := NewAgent(AgentConfig{
		Addr:     "127.0.0.1:1", // reserved port: every dial fails fast
		Campaign: CampaignID{Seed: 3, Duration: 24 * sim.Hour, Scenario: 3},
		Testbed:  "alpha", Nodes: wireNodes, SpillDir: t.TempDir(),
		DialTimeout: 50 * time.Millisecond, RetryMin: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for i := 0; i < 300; i++ {
		node, wm := wireDrain(i)
		if err := a.Ingest("alpha", node, nil, nil, wm); err != nil {
			t.Fatal(err)
		}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, st := range a.streams {
		for _, e := range st.buf {
			if e.raw == nil || cap(e.raw) != len(e.raw) {
				t.Fatalf("%s seq %d: spill frame of %d bytes holds a %d-byte array",
					st.node, e.b.Seq, len(e.raw), cap(e.raw))
			}
			n++
		}
	}
	if n != 300 {
		t.Fatalf("%d frames buffered, want 300", n)
	}
}

// sessionWireBatches is one BenchmarkSessionWire session's backlog.
const sessionWireBatches = 20000

// BenchmarkSessionWire is the sink-ingest row of the per-layer ledger: one
// agent ships a backlog of captured-size (empty, ~36-byte) drains over
// loopback into an in-memory sink and finishes. It reports wall time,
// allocated bytes and allocations per batch over the whole session —
// agent encode, framing, sink decode, fold and acknowledgements.
func BenchmarkSessionWire(b *testing.B) {
	campaign := CampaignID{Seed: 13, Duration: sim.Hour, Scenario: 1}
	var elapsed time.Duration
	var bytes, allocs uint64
	var m0, m1 runtime.MemStats
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sink, err := NewSink(SinkConfig{Addr: "127.0.0.1:0", Campaign: campaign, Spec: wireSpec()})
		if err != nil {
			b.Fatal(err)
		}
		a, err := NewAgent(AgentConfig{Addr: sink.Addr(), Campaign: campaign,
			Testbed: "alpha", Nodes: wireNodes})
		if err != nil {
			b.Fatal(err)
		}
		benchWaitConnected(b, a)
		runtime.ReadMemStats(&m0)
		b.StartTimer()
		start := time.Now()
		for j := 0; j < sessionWireBatches; j++ {
			node, wm := wireDrain(j)
			if err := a.Ingest("alpha", node, nil, nil, wm); err != nil {
				b.Fatal(err)
			}
		}
		if err := a.Finish(wireCounters(), sim.Hour, time.Minute); err != nil {
			b.Fatal(err)
		}
		if _, err := sink.Wait(time.Minute); err != nil {
			b.Fatal(err)
		}
		elapsed += time.Since(start)
		runtime.ReadMemStats(&m1)
		bytes += m1.TotalAlloc - m0.TotalAlloc
		allocs += m1.Mallocs - m0.Mallocs
		a.Close()
		sink.Close()
	}
	n := float64(b.N) * sessionWireBatches
	b.ReportMetric(float64(elapsed.Nanoseconds())/n, "ns/batch")
	b.ReportMetric(float64(bytes)/n, "B/batch")
	b.ReportMetric(float64(allocs)/n, "allocs/batch")
}
