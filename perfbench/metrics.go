package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"slices"
)

// The metric catalogue. BENCHMARK.json declares the same names, units and
// directions (pinned by TestCatalogueMatchesBenchmarkJSON); manifest.json
// says which workloads measure each layer metric and which end-to-end
// metric it should move.

//go:embed manifest.json
var manifestJSON []byte

// metricDef declares one metric.
type metricDef struct {
	Name, Unit, Better string
}

// endToEndDefs are printed by every untraced run.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"campaign_days_per_s", "1/s", "higher"},
	{"live_heap_mb", "MB", "lower"},
	{"tables_p50_ms", "ms", "lower"},
	{"tables_p90_ms", "ms", "lower"},
}

// perLayerDefs are printed by every traced run; a workload that does not
// exercise a layer reports it as 0 (see completeLedger).
var perLayerDefs = []metricDef{
	{"testbed.self_s_per_day", "s", "lower"},
	{"testbed.ns_per_event", "ns", "lower"},
	{"testbed.events_per_day", "count", "lower"},
	{"testbed.alloc_mb_per_day", "MB", "lower"},
	{"workload.packets_per_day", "count", "higher"},
	{"workload.cycles_per_day", "count", "higher"},
	{"btpan.sweep_speedup", "ratio", "higher"},
	{"btpan.report_ms", "ms", "lower"},
	{"stats.ci_ms", "ms", "lower"},
	{"analysis.ingest_us_per_drain", "us", "lower"},
	{"analysis.ingest_share", "ratio", "lower"},
	{"analysis.finalize_ms", "ms", "lower"},
	{"analysis.pending_max", "count", "lower"},
	{"collector.encode_us_per_batch", "us", "lower"},
	{"collector.decode_us_per_batch", "us", "lower"},
	{"collector.bytes_per_batch", "B", "lower"},
	{"collector.fold_us_per_batch", "us", "lower"},
	{"collector.transport_share", "ratio", "lower"},
	{"collector.batches", "count", "lower"},
	{"collector.records", "count", "higher"},
	{"collector.useful_ratio", "ratio", "higher"},
	{"collector.duplicates", "count", "lower"},
	{"collector.rejected", "count", "lower"},
	{"collector.sink_pending_max", "count", "lower"},
	{"collector.live_tables_busy_ms", "ms", "lower"},
	{"collector.live_tables_wait_ms", "ms", "lower"},
	{"collector.reads_late_ms", "ms", "lower"},
	{"scatternet.new_ms", "ms", "lower"},
	{"scatternet.piconet_s", "s", "lower"},
	{"scatternet.shard_speedup", "ratio", "higher"},
	{"scatternet.overlay_s", "s", "lower"},
	{"scatternet.overlay_share", "ratio", "lower"},
	{"analysis.fold_ms_per_piconet", "ms", "lower"},
	{"analysis.rollup_finalize_ms", "ms", "lower"},
	{"scatternet.render_ms", "ms", "lower"},
	{"scatternet.probes", "count", "higher"},
	{"scatternet.hops", "count", "higher"},
	{"scatternet.correlated_outages", "count", "lower"},
	{"trace.overhead_share", "ratio", "lower"},
	{"trace.days_per_s_delta", "1/s", "higher"},
	{"failed_share", "ratio", "lower"},
}

// names lists the defs' names.
func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	return out
}

var (
	endToEnd = names(endToEndDefs)
	perLayer = names(perLayerDefs)
)

// measuredOn maps each per-layer metric to the workloads whose traced run
// measures it: the measured_on lists of manifest.json, the one record of
// which layers a workload exercises.
var measuredOn = func() map[string][]string {
	var m struct {
		PerLayer map[string]struct {
			MeasuredOn []string `json:"measured_on"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(manifestJSON, &m); err != nil {
		panic("manifest.json: " + err.Error())
	}
	out := make(map[string][]string, len(m.PerLayer))
	for name, def := range m.PerLayer {
		out[name] = def.MeasuredOn
	}
	return out
}()

// completeLedger checks that a traced run of workload measured exactly the
// per-layer metrics manifest.json lists as measured on it, and records
// every other per-layer metric as 0: the workload does not exercise that
// layer.
func completeLedger(r *run, workload string) error {
	for _, d := range perLayerDefs {
		_, set := r.metrics[d.Name]
		want := slices.Contains(measuredOn[d.Name], workload)
		switch {
		case want && !set:
			return fmt.Errorf("internal: %s is measured on %s (manifest.json) but the run did not set it", d.Name, workload)
		case !want && set:
			return fmt.Errorf("internal: the %s run set %s, which manifest.json does not measure on it", workload, d.Name)
		case !want:
			r.set(d.Name, d.Unit, 0)
		}
	}
	return nil
}
