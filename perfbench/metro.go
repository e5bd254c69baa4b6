package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	btpan "repro"
	"repro/internal/analysis"
	"repro/internal/scatternet"
	"repro/internal/sim"
)

// The metro workload: btpan.RunScatternet for one virtual day on a ring of
// metroPiconets piconets with roll-up and streaming, relay probes sampled
// to about four pairs per source (as BenchmarkScatternetDay64 does), shards = nproc, ending in Rollup.Render.
// It is the only workload that runs the bridge overlay, the Router and the
// roll-up Finalize, whose share grows with the piconet count.

const (
	metroPiconets = 64
	metroScenario = btpan.ScenarioSIRAs
)

// metroConfig is the timed scatternet of a seed set (its base seed).
func metroConfig(set seedSet, piconets int, duration sim.Time) btpan.ScatternetConfig {
	fraction := 4 / float64(piconets-1)
	if fraction > 1 {
		fraction = 1
	}
	return btpan.ScatternetConfig{
		CampaignConfig: btpan.CampaignConfig{Seed: set.Base, Duration: duration,
			Scenario: metroScenario, Streaming: true, Parallelism: runtime.NumCPU()},
		Piconets: piconets, Topology: btpan.TopologyRing,
		ProbeSample: fraction, Rollup: true,
	}
}

// runMetro measures the end-to-end metrics of the metro workload.
func runMetro(o options, r *run) error {
	cfg := metroConfig(o.seeds, metroPiconets, btpan.Day)
	clock, err := newHostClock()
	if err != nil {
		return err
	}
	reads, err := newReadRef()
	if err != nil {
		return err
	}
	setup, err := setupRepeated(clock, func() error {
		if _, err := btpan.NewScatternetCampaign(cfg); err != nil {
			return err
		}
		// The warm-up runs a small scatternet on this goroutine.
		warm := metroConfig(seedSet{Base: warmupSeed}, 8, btpan.Day/4)
		warm.Parallelism = 1
		res, err := btpan.RunScatternet(warm)
		if err != nil {
			return err
		}
		_ = res.Rollup.Render()
		return nil
	})
	if err != nil {
		return fmt.Errorf("metro setup: %w", err)
	}

	// Reads of the finished result's report run between runs, outside the
	// runs' time.
	var last *btpan.ScatternetResult
	var phase timedPhase
	h0 := liveHeap()
	first, err := clock.sample()
	if err != nil {
		return err
	}
	phase.ref, phase.nominal = []float64{first}, refNominal
	phase.units, err = timedLoop(o.seconds, func() error {
		res, err := btpan.RunScatternet(cfg)
		if err != nil {
			r.ops(cfg.Piconets, cfg.Piconets)
			return err
		}
		r.ops(cfg.Piconets, 0)
		checkDigest(r, "metro/"+o.seeds.Name, res.Rollup.Render())
		last = res
		return nil
	}, func() error {
		phase.reads, err = unitReads(phase.reads, reads, func() error {
			_ = last.Rollup.Render()
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
		return fmt.Errorf("metro: %w", err)
	}
	reportEndToEnd(r, setup, float64(cfg.Piconets), phase)
	h1 := liveHeap()
	runtime.KeepAlive(last)
	r.set("live_heap_mb", "MB", heapMB(h0, h1))
	return nil
}

// metroDecomposed runs the scatternet through the calls RunScatternet makes
// internally, from outside: NewScatternetCampaign, PiconetPartial per
// piconet on nproc shard goroutines folded by ScatternetFold, RunOverlay on
// this goroutine meanwhile, then Merge, Finalize and Render. With a nil
// recorder it is the untraced twin of the traced pass.
func metroDecomposed(cfg btpan.ScatternetConfig, rec *recorder) (wall float64, rendered string,
	roll *analysis.ScatternetRollup, err error) {
	t0 := time.Now()
	id := rec.begin("scatternet.New", 0)
	camp, err := btpan.NewScatternetCampaign(cfg)
	rec.end(id)
	if err != nil {
		return 0, "", nil, err
	}
	root := rec.begin("metro.campaign", 0)
	p := camp.Piconets()
	shards := cfg.Parallelism
	if shards > p {
		shards = p
	}
	folds := make([]*analysis.ScatternetFold, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sid := rec.begin("scatternet.shard", root)
			defer rec.end(sid)
			fold := analysis.NewScatternetFold(camp.ScenarioName())
			for pic := s * p / shards; pic < (s+1)*p/shards; pic++ {
				id := rec.begin("scatternet.PiconetPartial", sid)
				part, err := camp.PiconetPartial(pic)
				rec.end(id)
				if err != nil {
					errs[s] = err
					return
				}
				id = rec.begin("analysis.ScatternetFold.AddPartial", sid)
				err = fold.AddPartial(part)
				rec.end(id)
				if err != nil {
					errs[s] = err
					return
				}
			}
			folds[s] = fold
		}(s)
	}
	id = rec.begin("scatternet.RunOverlay", root)
	overlay, overlayErr := camp.RunOverlay()
	rec.end(id)
	wg.Wait()
	for _, err := range append(errs, overlayErr) {
		if err != nil {
			rec.end(root)
			return 0, "", nil, err
		}
	}
	id = rec.begin("analysis.ScatternetFold.Merge", root)
	fold := folds[0]
	for _, f := range folds[1:] {
		if err := fold.Merge(f); err != nil {
			rec.end(id)
			rec.end(root)
			return 0, "", nil, err
		}
	}
	rec.end(id)
	id = rec.begin("analysis.ScatternetFold.Finalize", root)
	agg, overview, err := fold.Finalize()
	rec.end(id)
	if err != nil {
		rec.end(root)
		return 0, "", nil, err
	}
	roll = &analysis.ScatternetRollup{
		Piconets: p, Scenario: fold.Scenario(), Agg: agg, Overview: overview,
		ProbePairFraction: scatternet.ProbeFraction(cfg.ProbeSample),
	}
	if overlay != nil {
		if overlay.Bridges != nil {
			roll.Bridges, roll.BridgeCount = analysis.RestoreBridgeAccum(overlay.Bridges), overlay.BridgeCount
		}
		if overlay.RelayDepth != nil {
			roll.RelayDepth = analysis.RestoreRelayDepthAccum(overlay.RelayDepth)
		}
	}
	id = rec.begin("analysis.ScatternetRollup.Render", root)
	rendered = roll.Render()
	rec.end(id)
	rec.end(root)
	return since(t0), rendered, roll, nil
}

// traceMetro measures the metro workload's per-layer ledger: one untraced
// RunScatternet, then the decomposed pass untraced, traced and untraced
// again, which must all render the same bytes.
func traceMetro(o options, r *run) error {
	cfg := metroConfig(o.seeds, metroPiconets, btpan.Day)
	days := float64(cfg.Piconets)
	t0 := time.Now()
	res, err := btpan.RunScatternet(cfg)
	if err != nil {
		return fmt.Errorf("metro: %w", err)
	}
	metroWall := since(t0)
	r.ops(cfg.Piconets, 0)
	want := res.Rollup.Render()
	checkDigest(r, "metro/"+o.seeds.Name, want)

	plainWall, plainOut, _, err := metroDecomposed(cfg, nil)
	if err != nil {
		return err
	}
	rec := newRecorder()
	tracedWall, out, roll, err := metroDecomposed(cfg, rec)
	if err != nil {
		return err
	}
	plainWall2, _, _, err := metroDecomposed(cfg, nil)
	if err != nil {
		return err
	}
	r.ops(3*cfg.Piconets, 0)
	r.check(plainOut == want && out == want, "decomposed metro report differs from RunScatternet's")
	led := finishTrace(o, r, rec, 2*days/(plainWall+plainWall2), days/tracedWall)

	pic := led.row("scatternet.PiconetPartial")
	overlay := led.row("scatternet.RunOverlay")
	work := float64(pic.Total+overlay.Total) / 1e9
	r.set("scatternet.new_ms", "ms", meanMS(led.row("scatternet.New")))
	r.set("scatternet.piconet_s", "s", meanMS(pic)/1e3)
	r.set("scatternet.shard_speedup", "ratio", work/metroWall)
	r.set("scatternet.overlay_s", "s", float64(overlay.Total)/1e9)
	r.set("scatternet.overlay_share", "ratio", float64(overlay.Total)/1e9/work)
	r.set("analysis.fold_ms_per_piconet", "ms", meanMS(led.row("analysis.ScatternetFold.AddPartial")))
	r.set("analysis.rollup_finalize_ms", "ms", meanMS(led.row("analysis.ScatternetFold.Finalize")))
	r.set("scatternet.render_ms", "ms", meanMS(led.row("analysis.ScatternetRollup.Render")))
	probes, hops := 0, 0
	if roll.RelayDepth != nil {
		probes = roll.RelayDepth.Probes()
	}
	if roll.Bridges != nil {
		hops = roll.Bridges.Hops
	}
	r.set("scatternet.probes", "count", float64(probes))
	r.set("scatternet.hops", "count", float64(hops))
	r.set("scatternet.correlated_outages", "count", float64(res.Bridges.CorrelatedOutages()))
	r.set("failed_share", "ratio", share(r.failed, r.attempted))
	return nil
}
