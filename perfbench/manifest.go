package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// manifestMetric is one metric entry of BENCHMARK.json. Bound is only
// set for end-to-end metrics.
type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// manifest is BENCHMARK.json: the command that runs the benchmark, the
// benchmark's own directories, the timed window, and the metrics.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

// runSeconds is the timed window of one run.
const runSeconds = 15

var workloads = []manifestWorkload{
	{wlRegion1, "cold region-1, all five properties: policy compile and SPF dominate, EPVP rounds are ~6%"},
	{wlFullOld, "cold full-old topology (40 of 90 peers), leak+hijack: EPVP rounds dominate, SPF does no work"},
	{wlService, "HTTP delta jobs on a region-1 baseline, 2 clients: queue, caches, warm start, codec and store"},
}

func bound(b float64) *float64 { return &b }

var endToEndMetrics = []manifestMetric{
	{"setup_s", "s", "lower", bound(0.25)},
	{"verify_p50_ms", "ms", "lower", bound(0.25)},
	{"verify_tail_ms", "ms", "lower", bound(0.25)},
	{"verdicts_per_s", "1/s", "higher", bound(0.25)},
	{"cpu_s_per_verdict", "s", "lower", bound(0.25)},
	{"peak_rss_mb", "MB", "lower", bound(0.2)},
	{"correct_frac", "ratio", "higher", bound(0.01)},
}

var perLayerMetrics = []manifestMetric{
	{Name: "load.ms", Unit: "ms", Better: "lower"},
	{Name: "src.compile.ms", Unit: "ms", Better: "lower"},
	{Name: "src.compile.nodes_created", Unit: "count", Better: "lower"},
	{Name: "src.rounds.ms", Unit: "ms", Better: "lower"},
	{Name: "src.rounds.nodes_created", Unit: "count", Better: "lower"},
	{Name: "src.rounds.iterations", Unit: "count", Better: "lower"},
	{Name: "src.rounds.unique_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "routing_analysis.ms", Unit: "ms", Better: "lower"},
	{Name: "routing_analysis.violations", Unit: "count", Better: "lower"},
	{Name: "spf.ms", Unit: "ms", Better: "lower"},
	{Name: "spf.nodes_created", Unit: "count", Better: "lower"},
	{Name: "spf.pecs", Unit: "count", Better: "lower"},
	{Name: "forwarding_analysis.ms", Unit: "ms", Better: "lower"},
	{Name: "forwarding_analysis.violations", Unit: "count", Better: "lower"},
	{Name: "bdd.peak_live_nodes", Unit: "count", Better: "lower"},
	{Name: "bdd.end_live_nodes", Unit: "count", Better: "lower"},
	{Name: "bdd.reclaim_runs", Unit: "count", Better: "lower"},
	{Name: "bdd.reclaim_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "bdd.sift_runs", Unit: "count", Better: "lower"},
	{Name: "src.status_hit", Unit: "count", Better: "higher"},
	{Name: "src.status_warm", Unit: "count", Better: "higher"},
	{Name: "src.status_disk", Unit: "count", Better: "higher"},
	{Name: "src.status_miss", Unit: "count", Better: "lower"},
	{Name: "src.warm_ms", Unit: "ms", Better: "lower"},
	{Name: "src.disk_ms", Unit: "ms", Better: "lower"},
	{Name: "report.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "store.writes", Unit: "count", Better: "lower"},
	{Name: "store.write_bytes", Unit: "bytes", Better: "lower"},
	{Name: "store.hits", Unit: "count", Better: "higher"},
	{Name: "store.misses", Unit: "count", Better: "lower"},
	{Name: "service.queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "service.verdict_ms", Unit: "ms", Better: "lower"},
	{Name: "service.http_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "service.rejected", Unit: "count", Better: "lower"},
	{Name: "service.coalesced", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

func currentManifest() manifest {
	return manifest{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEndMetrics,
		PerLayer:   perLayerMetrics,
	}
}

// manifestJSON renders the manifest as BENCHMARK.json is checked in.
func manifestJSON() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(currentManifest()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func writeManifest(path string) error {
	raw, err := manifestJSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("write manifest: %w", err)
	}
	return nil
}
