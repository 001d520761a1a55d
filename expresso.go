// Package expresso is the public API of this reproduction of "Expresso:
// Comprehensively Reasoning About External Routes Using Symbolic
// Simulation" (SIGCOMM 2024).
//
// Expresso verifies routing and forwarding properties of a BGP network
// under **arbitrary external routes**: every external neighbor may
// advertise any set of prefixes with any attributes. The analysis runs in
// three stages (§3.2 of the paper):
//
//  1. SRC — symbolic route computation (the EPVP fixed point),
//  2. SPF — symbolic packet forwarding (symbolic FIBs and PECs),
//  3. property analysis over the symbolic RIBs and PECs.
//
// Basic use:
//
//	net, err := expresso.Load(configText)
//	report, err := net.Verify(expresso.Options{})
//	for _, v := range report.Violations { fmt.Println(v) }
package expresso

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/expresso-verify/expresso/internal/config"
	"github.com/expresso-verify/expresso/internal/epvp"
	"github.com/expresso-verify/expresso/internal/pipeline"
	"github.com/expresso-verify/expresso/internal/properties"
	"github.com/expresso-verify/expresso/internal/route"
	"github.com/expresso-verify/expresso/internal/telemetry"
	"github.com/expresso-verify/expresso/internal/topology"
)

// Violation re-exports the property-analysis violation type.
type Violation = properties.Violation

// Kind re-exports the property kind.
type Kind = properties.Kind

// Re-exported property kinds.
const (
	RouteLeakFree     = properties.RouteLeakFree
	RouteHijackFree   = properties.RouteHijackFree
	TrafficHijackFree = properties.TrafficHijackFree
	BlackHoleFree     = properties.BlackHoleFree
	LoopFree          = properties.LoopFree
	BlockToExternal   = properties.BlockToExternal
	EgressPreference  = properties.EgressPreference
)

// Mode re-exports the EPVP feature selection (Figure 6c's levels).
type Mode = epvp.Mode

// FullMode enables traffic policies, symbolic communities, and symbolic AS
// paths — the paper's default Expresso configuration.
func FullMode() Mode { return epvp.FullMode() }

// ExpressoMinusMode is Expresso- (§7.2): concrete AS paths.
func ExpressoMinusMode() Mode {
	m := epvp.FullMode()
	m.SymbolicASPaths = false
	return m
}

// Options configures a verification run.
type Options struct {
	// Mode selects modeled protocol features; the zero value is upgraded
	// to FullMode.
	Mode Mode
	// Properties selects which properties to check; empty means
	// RouteLeakFree, RouteHijackFree, and TrafficHijackFree (the §7.1
	// set).
	Properties []Kind
	// BTE is the community for BlockToExternal (required when that
	// property is selected).
	BTE route.Community
	// Workers is the number of goroutines the symbolic engine uses for the
	// EPVP rounds and the SPF traversal. 0 means one per available CPU
	// (runtime.GOMAXPROCS); 1 keeps the single-threaded reference path.
	// The Report is byte-identical for every value, so Workers is excluded
	// from CacheKey. The EXPRESSO_WORKERS environment variable, when set
	// to a positive integer, overrides a zero value (used by CI to force
	// the parallel paths under the race detector).
	Workers int
	// Trace, when non-nil, records a run-scoped telemetry trace: one
	// span per pipeline stage (with cache provenance) plus fine-grained
	// engine events — per-EPVP-round convergence records and per-router
	// SPF work. Call Trace.Finish (or WriteJSON) after the run to obtain
	// the trace. A nil Trace is the default and costs nothing on the
	// engine's hot paths. Like Workers, Trace never changes a report's
	// content and is excluded from CacheKey.
	Trace *Tracer
}

// Tracer re-exports the telemetry run-trace recorder (see Options.Trace).
type Tracer = telemetry.Tracer

// Trace re-exports the frozen trace document a Tracer produces.
type Trace = telemetry.Trace

// NewTracer starts a run-scoped trace recorder for Options.Trace.
func NewTracer() *Tracer { return telemetry.NewTracer() }

func (o *Options) normalize() {
	if o.Mode.IsZero() {
		o.Mode = FullMode()
	}
	if len(o.Properties) == 0 {
		o.Properties = []Kind{RouteLeakFree, RouteHijackFree, TrafficHijackFree}
	}
	if o.Workers == 0 {
		o.Workers = telemetry.WorkersFromEnv()
	}
}

// CacheKey renders the normalized options deterministically (mode flags,
// sorted property set, BTE community). Two Options values with the same key
// request the same verification, so services may key result caches on it
// together with a digest of the configuration text. Workers and GC are
// deliberately absent: they change how fast a report is produced, not its
// content, so cached results are shared across those settings.
//
// Every field is rendered explicitly — the mode through Mode.Key, the rest
// by hand — never through a %+v of a whole struct, whose output shifts
// with any field rename or reorder and would silently invalidate every
// key. The golden test in expresso_pipeline_test.go pins the format.
func (o Options) CacheKey() string {
	o.Properties = append([]Kind(nil), o.Properties...)
	o.normalize()
	props := make([]string, len(o.Properties))
	for i, p := range o.Properties {
		props[i] = string(p)
	}
	sort.Strings(props)
	return "mode=" + o.Mode.Key() +
		"|props=" + strings.Join(props, ",") +
		"|bte=" + strconv.FormatUint(uint64(o.BTE), 10)
}

// ParseProperty maps a property name to its Kind. It accepts both the short
// CLI names (leak, hijack, traffic, blackhole, loop, bte, egress) and the
// canonical kind strings (RouteLeakFree, ...).
func ParseProperty(name string) (Kind, error) {
	switch strings.TrimSpace(name) {
	case "leak", string(RouteLeakFree):
		return RouteLeakFree, nil
	case "hijack", string(RouteHijackFree):
		return RouteHijackFree, nil
	case "traffic", string(TrafficHijackFree):
		return TrafficHijackFree, nil
	case "blackhole", string(BlackHoleFree):
		return BlackHoleFree, nil
	case "loop", string(LoopFree):
		return LoopFree, nil
	case "bte", string(BlockToExternal):
		return BlockToExternal, nil
	case "egress", string(EgressPreference):
		return EgressPreference, nil
	}
	return "", fmt.Errorf("expresso: unknown property %q", name)
}

func (o *Options) wants(k Kind) bool {
	for _, p := range o.Properties {
		if p == k {
			return true
		}
	}
	return false
}

// Timing records per-stage wall-clock durations (Table 3's columns).
// Durations marshal as integer nanoseconds.
type Timing struct {
	// Load is the parse+build time (0 when verifying a pre-loaded
	// Network, whose load happened outside the run).
	Load               time.Duration `json:"load_ns"`
	SRC                time.Duration `json:"src_ns"`
	RoutingAnalysis    time.Duration `json:"routing_analysis_ns"`
	SPF                time.Duration `json:"spf_ns"`
	ForwardingAnalysis time.Duration `json:"forwarding_analysis_ns"`
	// Workers is the resolved engine worker count the run used (1 =
	// sequential reference path).
	Workers int `json:"workers"`
}

// Total sums every stage duration. A new stage field must be added here:
// the reflection test TestTimingTotalCoversAllStages fails otherwise.
func (t Timing) Total() time.Duration {
	return t.Load + t.SRC + t.RoutingAnalysis + t.SPF + t.ForwardingAnalysis
}

// Report is the outcome of a verification run.
type Report struct {
	// Stats summarizes the analyzed network (Table 1's columns).
	Stats topology.Stats `json:"stats"`
	// Violations lists every property violation found.
	Violations []Violation `json:"violations,omitempty"`
	// Timing holds per-stage durations.
	Timing Timing `json:"timing"`
	// HeapBytes is the live heap after the run (Figure 8's metric).
	HeapBytes uint64 `json:"heap_bytes"`
	// Converged reports whether EPVP reached its fixed point.
	Converged bool `json:"converged"`
	// Iterations counts EPVP rounds.
	Iterations int `json:"iterations"`
	// RIBRoutes is the total number of symbolic routes across internal
	// RIBs.
	RIBRoutes int `json:"rib_routes"`
	// PECs is the number of packet equivalence classes computed (0 when no
	// forwarding property was requested).
	PECs int `json:"pecs"`
}

// CountByKind tallies violations per property.
func (r *Report) CountByKind() map[Kind]int {
	out := map[Kind]int{}
	for _, v := range r.Violations {
		out[v.Kind]++
	}
	return out
}

// Network is a loaded, analyzable network.
type Network struct {
	Topo *topology.Network
}

// Load parses a multi-router configuration text and builds the network.
func Load(configText string) (*Network, error) {
	devices, err := config.ParseConfigs(configText)
	if err != nil {
		return nil, err
	}
	topo, err := topology.Build(devices)
	if err != nil {
		return nil, err
	}
	return &Network{Topo: topo}, nil
}

// LoadDir parses every *.cfg file in a directory.
func LoadDir(dir string) (*Network, error) {
	devices, err := config.ParseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(devices) == 0 {
		return nil, fmt.Errorf("expresso: no router definitions in any *.cfg file under %s", dir)
	}
	topo, err := topology.Build(devices)
	if err != nil {
		return nil, err
	}
	return &Network{Topo: topo}, nil
}

// Verify runs the requested property checks and returns the report.
func (n *Network) Verify(opts Options) (*Report, error) {
	return n.VerifyContext(context.Background(), opts)
}

// VerifyContext is Verify with cancellation: the context is checked inside
// the EPVP fixed-point iteration, the SPF traversal, and between the
// pipeline stages, so a cancelled or expired context aborts the run
// promptly and returns ctx.Err() instead of finishing minutes of symbolic
// simulation nobody is waiting for.
//
// VerifyContext is a thin wrapper over the staged pipeline
// (internal/pipeline) with no cache attached: every stage runs cold, so
// repeated calls are fully independent — the determinism tests rely on
// that. Use a Verifier for stage-granular caching and incremental
// (warm-start) re-verification.
func (n *Network) VerifyContext(ctx context.Context, opts Options) (*Report, error) {
	opts.normalize()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	runner := &pipeline.Runner{}
	out, err := runner.Run(ctx, opts.request(pipeline.FromNetwork(n.Topo)))
	if err != nil {
		return nil, err
	}
	if opts.Trace != nil {
		// A pre-loaded network has no config text, hence no digest.
		opts.Trace.SetMeta("", opts.Mode.Key(), opts.CacheKey(), out.SRC.Workers)
		traceStages(opts.Trace, out.Stages)
		traceWatermark(opts.Trace, out.SRC)
	}
	return assembleReport(n.Topo.Statistics(), out), nil
}

// traceStages records the pipeline's per-stage provenance entries as
// trace spans (nil-tracer safe).
func traceStages(tr *Tracer, stages []StageInfo) {
	for _, st := range stages {
		tr.Span(st.Stage, st.Status, st.Key, st.Seed, st.Note, st.Start, st.Duration)
	}
}

// traceWatermark records the run's BDD memory footer: the peak-live-node
// watermark, end-of-run population, complement share, and the ten
// largest levels. The underlying Profile is an O(slab) walk, so it runs
// only here — when a tracer is attached — keeping the zero-overhead
// contract for untraced runs.
func traceWatermark(tr *Tracer, src *pipeline.SRCArtifact) {
	if !tr.Enabled() || src == nil {
		return
	}
	p := src.BDDProfile()
	wm := telemetry.Watermark{
		PeakLiveNodes:   p.PeakLiveNodes,
		PeakLiveBytes:   p.PeakLiveBytes,
		Samples:         p.WatermarkSamples,
		EndLiveNodes:    p.LiveNodes,
		EndLiveBytes:    p.LiveBytes,
		ComplementShare: p.ComplementShare,
	}
	for _, l := range p.TopLevels(10) {
		wm.TopLevels = append(wm.TopLevels, telemetry.BDDLevel{
			Level: l.Level, Nodes: l.Nodes, Bytes: l.Bytes,
		})
	}
	tr.SetWatermark(wm)
}

// validate rejects option combinations the pipeline cannot run. Checked
// before any stage executes (the old monolith noticed a missing BTE only
// after the fixed point had already been computed).
func (o *Options) validate() error {
	if o.wants(BlockToExternal) && o.BTE == 0 {
		return fmt.Errorf("expresso: BlockToExternal requires Options.BTE")
	}
	return nil
}

// request translates normalized options into a pipeline request.
func (o *Options) request(load *pipeline.LoadArtifact) *pipeline.Request {
	return &pipeline.Request{
		Load:       load,
		Mode:       o.Mode,
		Properties: o.Properties,
		BTE:        o.BTE,
		Workers:    o.Workers,
		Trace:      o.Trace,
	}
}

// assembleReport builds the public Report from a pipeline outcome. The
// violation order is the monolith's: routing analysis (leak, hijack, bte)
// then forwarding analysis (traffic, blackhole, loop). Converged,
// Iterations, RIBRoutes, and Timing.Workers come from the SRC artifact —
// on a cache hit they describe the run that computed it, which keeps
// reports deterministic regardless of where an artifact came from.
func assembleReport(stats topology.Stats, out *pipeline.Outcome) *Report {
	rep := &Report{Stats: stats}
	src := out.SRC
	rep.Converged = src.Res.Converged
	rep.Iterations = src.Res.Iterations
	for _, rs := range src.Res.Best {
		rep.RIBRoutes += len(rs)
	}
	rep.Timing.Workers = src.Workers
	if out.Routing != nil {
		rep.Violations = append(rep.Violations, out.Routing.Violations...)
	}
	if out.SPF != nil {
		rep.PECs = len(out.SPF.Res.PECs)
	}
	if out.Forwarding != nil {
		rep.Violations = append(rep.Violations, out.Forwarding.Violations...)
	}
	for _, st := range out.Stages {
		switch st.Stage {
		case pipeline.StageLoad:
			rep.Timing.Load = st.Duration
		case pipeline.StageSRC:
			rep.Timing.SRC = st.Duration
		case pipeline.StageRouting:
			rep.Timing.RoutingAnalysis = st.Duration
		case pipeline.StageSPF:
			rep.Timing.SPF = st.Duration
		case pipeline.StageForwarding:
			rep.Timing.ForwardingAnalysis = st.Duration
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.HeapBytes = ms.HeapAlloc
	return rep
}
