package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	btpan "repro"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// The sweep workload: btpan.Sweep over the seed set for a few virtual days
// on the streaming plane with default workers, then the CI tables. This is
// the convergence path (docs/CONVERGENCE.md); the simulator stack does
// nearly all of the work and the collector none.

const (
	sweepDays     = 2
	sweepScenario = btpan.ScenarioSIRAs
)

// sweepConfig is the timed sweep of a seed set.
func sweepConfig(set seedSet) btpan.SweepConfig {
	return btpan.SweepConfig{BaseSeed: set.Base, Seeds: set.Count,
		Duration: sweepDays * btpan.Day, Scenario: sweepScenario}
}

// sweepTables renders the sweep's CI tables: §6 scalars, Table 2, Table 3,
// the Table 4 column and the taxonomy.
func sweepTables(res *btpan.SweepResult) string {
	var b strings.Builder
	sc := res.ScalarsCI()
	fmt.Fprintf(&b, "seeds %d: user reports %s, system entries %s, random share %s%%, "+
		"idle before failed %s s, clean %s s\n", sc.Seeds,
		sc.UserReports.Format("%.1f"), sc.SystemEntries.Format("%.1f"),
		sc.RandomSharePct.Format("%.3f"), sc.IdleBeforeFailedMean.Format("%.4f"),
		sc.IdleBeforeCleanMean.Format("%.4f"))
	dists := make([]float64, 0, len(sc.DistanceShares))
	for d := range sc.DistanceShares {
		dists = append(dists, d)
	}
	sort.Float64s(dists)
	for _, d := range dists {
		fmt.Fprintf(&b, "distance %g m: %s%%\n", d, sc.DistanceShares[d].Format("%.3f"))
	}
	b.WriteString(res.Table2CI().Render())
	b.WriteString(res.Table3CI().Render())
	b.WriteString(res.DependabilityCI().Render())
	b.WriteString(res.TaxonomyCI().Render())
	return b.String()
}

// runSweep measures the end-to-end metrics of the sweep workload.
func runSweep(o options, r *run) error {
	cfg := sweepConfig(o.seeds)
	clock, err := newHostClock()
	if err != nil {
		return err
	}
	reads, err := newReadRef()
	if err != nil {
		return err
	}
	setup, err := setupRepeated(clock, func() error {
		if err := cfg.Validate(); err != nil {
			return err
		}
		// The warm-up runs one seed's campaign and its tables on this
		// goroutine.
		res, err := btpan.RunCampaign(btpan.CampaignConfig{Seed: warmupSeed, Duration: btpan.Day,
			Scenario: cfg.Scenario, Streaming: true, Parallelism: 1})
		if err != nil {
			return err
		}
		_ = sweepTables(&btpan.SweepResult{Config: cfg, Runs: []*btpan.CampaignResult{res}})
		return nil
	})
	if err != nil {
		return fmt.Errorf("sweep setup: %w", err)
	}

	// Reads of the finished result's tables run between sweeps, outside
	// the sweeps' time.
	var last *btpan.SweepResult
	var phase timedPhase
	h0 := liveHeap()
	first, err := clock.sample()
	if err != nil {
		return err
	}
	phase.ref, phase.nominal = []float64{first}, refNominal
	phase.units, err = timedLoop(o.seconds, func() error {
		res, err := btpan.Sweep(cfg)
		if err != nil {
			r.ops(cfg.Seeds, cfg.Seeds)
			return err
		}
		r.ops(cfg.Seeds, 0)
		checkDigest(r, "sweep/"+o.seeds.Name, sweepTables(res))
		last = res
		return nil
	}, func() error {
		phase.reads, err = unitReads(phase.reads, reads, func() error {
			_ = sweepTables(last)
			return nil
		})
		if err != nil {
			return err
		}
		s, err := clock.sample()
		phase.ref = append(phase.ref, s)
		return err
	})
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	reportEndToEnd(r, setup, float64(cfg.Seeds*sweepDays), phase)
	h1 := liveHeap()
	runtime.KeepAlive(last)
	r.set("live_heap_mb", "MB", heapMB(h0, h1))
	return nil
}

// streamerIngest forwards a testbed's drains to a Streamer, with a span
// around each Ingest and the streamer's pending backlog sampled once per
// drain round (after the NAP, the last node of a round).
type streamerIngest struct {
	s          *analysis.Streamer
	rec        *recorder
	parent     int32
	nap        string
	pendingMax int
}

func (t *streamerIngest) Ingest(tb, node string, reports []core.UserReport,
	entries []core.SystemEntry, watermark sim.Time) error {
	id := t.rec.begin("analysis.Streamer.Ingest", t.parent)
	err := t.s.Ingest(tb, node, reports, entries, watermark)
	t.rec.end(id)
	if t.rec != nil && node == t.nap {
		if p := t.s.Pending(); p > t.pendingMax {
			t.pendingMax = p
		}
	}
	return err
}

// simCounts are the simulator's own counts over a set of campaigns.
type simCounts struct {
	events, packets, cycles int64
	allocBytes              uint64
}

// addCounters adds the workload counters of finished testbeds.
func (c *simCounts) addCounters(results ...*testbed.Results) {
	for _, res := range results {
		for _, k := range res.Counters {
			c.cycles += int64(k.Cycles)
			for _, n := range k.PacketsByType {
				c.packets += n
			}
		}
	}
}

// sweepDecomposed runs the sweep's seeds one after another on this
// goroutine, each through the calls Sweep makes for it (testbed campaign,
// streaming fold, report), then builds the CI tables from the results.
// With a nil recorder it is the untraced twin of the traced pass.
func sweepDecomposed(cfg btpan.SweepConfig, rec *recorder) (wall float64, tables string,
	counts simCounts, pendingMax int, err error) {
	t0 := time.Now()
	runs := make([]*btpan.CampaignResult, cfg.Seeds)
	var report strings.Builder
	for i := range runs {
		seed := cfg.BaseSeed + uint64(i)
		root := rec.begin("btpan.seed", 0)
		id := rec.begin("testbed.NewCampaign", root)
		c, err := testbed.NewCampaign(seed, cfg.Scenario, nil)
		rec.end(id)
		if err != nil {
			return 0, "", counts, 0, err
		}
		s, err := analysis.NewStreamer(c.StreamSpec())
		if err != nil {
			return 0, "", counts, 0, err
		}
		var ms0, ms1 runtime.MemStats
		if rec != nil {
			runtime.ReadMemStats(&ms0)
		}
		id = rec.begin("testbed.RunStreamingSequential", root)
		ing := &streamerIngest{s: s, rec: rec, parent: id, nap: c.Random.NAP.Node}
		random, realistic := c.RunStreamingSequential(cfg.Duration, sim.Hour, ing)
		rec.end(id)
		if rec != nil {
			runtime.ReadMemStats(&ms1)
			counts.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		}
		if ing.pendingMax > pendingMax {
			pendingMax = ing.pendingMax
		}
		counts.events += int64(c.Random.World.Executed() + c.Realistic.World.Executed())
		counts.addCounters(random, realistic)
		id = rec.begin("analysis.Streamer.Finalize", root)
		agg := s.Finalize()
		rec.end(id)
		runs[i] = &btpan.CampaignResult{
			Config: btpan.CampaignConfig{Seed: seed, Duration: cfg.Duration,
				Scenario: cfg.Scenario, Streaming: true},
			Random: random, Realistic: realistic, Agg: agg,
		}
		id = rec.begin("btpan.WriteReport", root)
		report.Reset()
		btpan.WriteReport(&report, runs[i])
		rec.end(id)
		rec.end(root)
	}
	id := rec.begin("stats.CI", 0)
	tables = sweepTables(&btpan.SweepResult{Config: cfg, Runs: runs})
	rec.end(id)
	return since(t0), tables, counts, pendingMax, nil
}

// traceSweep measures the sweep's per-layer ledger: one untraced sweep,
// then the decomposed pass untraced, traced and untraced again.
func traceSweep(o options, r *run) error {
	cfg := sweepConfig(o.seeds)
	days := float64(cfg.Seeds * sweepDays)
	t0 := time.Now()
	res, err := btpan.Sweep(cfg)
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	sweepWall := since(t0)
	r.ops(cfg.Seeds, 0)
	want := sweepTables(res)
	checkDigest(r, "sweep/"+o.seeds.Name, want)

	// Untraced, traced, untraced: the overhead compares the traced pass
	// with the mean of the passes around it.
	plainWall, plainTables, _, _, err := sweepDecomposed(cfg, nil)
	if err != nil {
		return err
	}
	rec := newRecorder()
	tracedWall, tables, counts, pendingMax, err := sweepDecomposed(cfg, rec)
	if err != nil {
		return err
	}
	plainWall2, _, _, _, err := sweepDecomposed(cfg, nil)
	if err != nil {
		return err
	}
	r.ops(3*cfg.Seeds, 0)
	r.check(plainTables == want && tables == want, "decomposed sweep tables differ from btpan.Sweep's")
	led := finishTrace(o, r, rec, 2*days/(plainWall+plainWall2), days/tracedWall)

	run := led.row("testbed.RunStreamingSequential")
	ingest := led.row("analysis.Streamer.Ingest")
	setSimLayers(r, run, counts, days)
	r.set("btpan.sweep_speedup", "ratio", float64(run.Total)/1e9/sweepWall)
	r.set("btpan.report_ms", "ms", meanMS(led.row("btpan.WriteReport")))
	r.set("stats.ci_ms", "ms", meanMS(led.row("stats.CI")))
	r.set("analysis.ingest_us_per_drain", "us", meanMS(ingest)*1e3)
	r.set("analysis.ingest_share", "ratio", float64(ingest.Total)/float64(run.Total))
	r.set("analysis.finalize_ms", "ms", meanMS(led.row("analysis.Streamer.Finalize")))
	r.set("analysis.pending_max", "count", float64(pendingMax))
	r.set("failed_share", "ratio", share(r.failed, r.attempted))
	return nil
}

// setSimLayers records the simulator rows of the ledger: self time of the
// testbed runs (their Ingest children excluded), events, allocation and
// workload counts, all per campaign-day.
func setSimLayers(r *run, run ledgerRow, counts simCounts, days float64) {
	r.set("testbed.self_s_per_day", "s", float64(run.Self)/1e9/days)
	r.set("testbed.ns_per_event", "ns", float64(run.Self)/float64(counts.events))
	r.set("testbed.events_per_day", "count", float64(counts.events)/days)
	r.set("testbed.alloc_mb_per_day", "MB", float64(counts.allocBytes)/1e6/days)
	r.set("workload.packets_per_day", "count", float64(counts.packets)/days)
	r.set("workload.cycles_per_day", "count", float64(counts.cycles)/days)
}

// meanMS is a ledger row's mean span duration in milliseconds.
func meanMS(row ledgerRow) float64 {
	if row.Calls == 0 {
		return 0
	}
	return float64(row.Total) / float64(row.Calls) / 1e6
}
