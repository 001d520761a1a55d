package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"github.com/expresso-verify/expresso"
	"github.com/expresso-verify/expresso/internal/bdd"
	"github.com/expresso-verify/expresso/internal/epvp"
	"github.com/expresso-verify/expresso/internal/netgen"
	"github.com/expresso-verify/expresso/internal/pipeline"
	"github.com/expresso-verify/expresso/internal/properties"
	"github.com/expresso-verify/expresso/internal/spf"
	"github.com/expresso-verify/expresso/internal/telemetry"
)

// gcHeapThreshold mirrors the pipeline's GCAuto cutoff: after the fixed
// point, the engine's memo is dropped and a collection forced only when
// the live heap exceeds it.
const gcHeapThreshold = 256 << 20

var (
	propsAll     = []expresso.Kind{expresso.RouteLeakFree, expresso.RouteHijackFree, expresso.TrafficHijackFree, expresso.BlackHoleFree, expresso.LoopFree}
	propsRouting = []expresso.Kind{expresso.RouteLeakFree, expresso.RouteHijackFree}
)

// seeded shifts a generator spec's seed so that benchmark seed 1 is the
// spec's own (golden) seed.
func seeded(spec netgen.CSPSpec, seed int64) netgen.CSPSpec {
	spec.Seed += seed - 1
	return spec
}

// fullOldRouting is the full old snapshot's topology (6 reflectors, 24
// peering routers, its bug counts and seed) with 40 of its 90 external
// peers, 400 of its 3200 internal prefixes and 3000 of its 45000
// customer prefix lines. The full snapshot takes ~30 s per verification,
// too long for several samples per run; at this scale EPVP rounds still
// take ~67% of a verification (62% on the full snapshot), compile ~16%
// (24%) and routing analysis ~17% (13%).
func fullOldRouting() netgen.CSPSpec {
	spec := netgen.CSPOldFull()
	spec.Peers = 40
	spec.Prefixes = 400
	spec.CustomerPrefixLines = 3000
	return spec
}

// coldFixture generates a cold workload's configuration text.
func coldFixture(workload string, seed int64) (string, []expresso.Kind) {
	if workload == wlFullOld {
		return netgen.CSP(seeded(fullOldRouting(), seed)), propsRouting
	}
	return netgen.CSP(seeded(netgen.CSPOldRegion(1), seed)), propsAll
}

// verifyCold is one verification on the `expresso check` path.
func verifyCold(text string, props []expresso.Kind, workers int) ([]expresso.Violation, error) {
	net, err := expresso.Load(text)
	if err != nil {
		return nil, err
	}
	rep, err := net.Verify(expresso.Options{Properties: props, Workers: workers})
	if err != nil {
		return nil, err
	}
	return rep.Violations, nil
}

// replay is one cold verification replayed as the individual public
// calls pipeline.Runner.Run makes on its uncached path, with a span
// around each call and BDD counters read at each boundary.
type replay struct {
	eng        *epvp.Engine
	violations []expresso.Violation
	counters   map[string]float64
}

func replayCold(ctx context.Context, rec *Recorder, req int, text string, props []expresso.Kind, workers int) (*replay, error) {
	root := rec.open(spanVerify, 0, req)
	defer rec.close(root)
	out := &replay{counters: map[string]float64{}}

	id := rec.open(spanLoad, root, req)
	load, err := pipeline.Load(text)
	rec.close(id)
	if err != nil {
		return nil, err
	}

	src := rec.open(spanSRC, root, req)
	id = rec.open(spanCompile, src, req)
	eng, err := epvp.NewContext(ctx, load.Net, epvp.FullMode())
	rec.close(id)
	if err != nil {
		rec.close(src)
		return nil, err
	}
	out.eng = eng
	m := eng.Space.M
	hits0, created0 := m.UniqueStats()
	out.counters["src.compile.nodes_created"] = float64(created0)
	id = rec.open(spanRounds, src, req)
	eng.Workers = workers
	res, err := eng.RunContext(ctx)
	rec.close(id)
	if err != nil {
		rec.close(src)
		return nil, err
	}
	hits1, created1 := m.UniqueStats()
	out.counters["src.rounds.nodes_created"] = float64(created1 - created0)
	out.counters["src.rounds.iterations"] = float64(res.Iterations)
	if n := (hits1 - hits0) + (created1 - created0); n > 0 {
		out.counters["src.rounds.unique_hit_ratio"] = float64(hits1-hits0) / float64(n)
	}
	// Root the fixed point as the pipeline does, then apply its GCAuto
	// post-SRC reclamation.
	srcRoots := fixedPointRoots(eng, res)
	m.Pin(srcRoots...)
	var heap runtime.MemStats
	runtime.ReadMemStats(&heap)
	if heap.HeapAlloc >= gcHeapThreshold {
		m.ClearCaches()
		runtime.GC()
	}
	rec.close(src)

	routingProps, forwardingProps := pipeline.SplitProperties(props)
	id = rec.open(spanRouting, root, req)
	var routing []expresso.Violation
	for _, k := range routingProps {
		switch k {
		case properties.RouteLeakFree:
			routing = append(routing, properties.CheckRouteLeak(eng, res)...)
		case properties.RouteHijackFree:
			routing = append(routing, properties.CheckRouteHijack(eng, res)...)
		}
	}
	rec.close(id)
	out.counters["routing_analysis.violations"] = float64(len(routing))
	conds := make([]bdd.Node, len(routing))
	for i, v := range routing {
		conds[i] = v.Cond
	}
	m.Pin(conds...)

	var forwarding []expresso.Violation
	if len(forwardingProps) > 0 {
		id = rec.open(spanSPF, root, req)
		_, before := m.UniqueStats()
		// The pipeline's pre-SPF sweep, under the same growth budgets.
		roots := append(append([]bdd.Node(nil), srcRoots...), conds...)
		if budget, on := telemetry.ReorderBudgetFromEnv(); on && m.NumNodes() >= budget {
			m.Reorder(roots...)
		} else if budget, on := telemetry.ReclaimBudgetFromEnv(); on && m.NumNodes() >= budget {
			m.Reclaim(roots...)
		}
		dp, err := spf.RunContext(ctx, eng, res)
		rec.close(id)
		if err != nil {
			return nil, err
		}
		_, after := m.UniqueStats()
		out.counters["spf.nodes_created"] = float64(after - before)
		out.counters["spf.pecs"] = float64(len(dp.PECs))
		m.Pin(dp.Nodes()...)

		id = rec.open(spanForwarding, root, req)
		for _, k := range forwardingProps {
			switch k {
			case properties.TrafficHijackFree:
				forwarding = append(forwarding, properties.CheckTrafficHijack(eng, dp)...)
			case properties.BlackHoleFree:
				forwarding = append(forwarding, properties.CheckBlackHole(eng, dp, properties.InternalDestPredicate(eng, dp))...)
			case properties.LoopFree:
				forwarding = append(forwarding, properties.CheckLoop(eng, dp)...)
			}
		}
		rec.close(id)
		out.counters["forwarding_analysis.violations"] = float64(len(forwarding))
	}

	id = rec.open(spanReport, root, req)
	out.violations = append(routing, forwarding...)
	rec.close(id)

	m.NoteWatermark()
	peak, _, _ := m.Watermark()
	rc, ro := m.ReclaimStats(), m.ReorderStats()
	out.counters["bdd.peak_live_nodes"] = float64(peak)
	out.counters["bdd.end_live_nodes"] = float64(m.NumNodes())
	out.counters["bdd.reclaim_runs"] = float64(rc.Runs)
	out.counters["bdd.reclaim_pause_ms"] = ms(rc.Pause)
	out.counters["bdd.sift_runs"] = float64(ro.Runs)
	return out, nil
}

// fixedPointRoots are the BDD handles an SRC artifact pins: the engine's
// cross-run roots plus every converged route's prefix-environment set.
func fixedPointRoots(eng *epvp.Engine, res *epvp.Result) []bdd.Node {
	roots := eng.Roots()
	for _, rs := range res.Best {
		for _, r := range rs {
			roots = append(roots, r.U)
		}
	}
	for _, rs := range res.ExternalRIB {
		for _, r := range rs {
			roots = append(roots, r.U)
		}
	}
	return roots
}

// runCold drives region1-all or fullold-routing: one closed-loop client
// verifying the fixture cold, back to back, for the run's duration.
func runCold(cfg runConfig) (*Result, error) {
	ctx := context.Background()
	workers := runtime.NumCPU()
	r := newResult(cfg, currentEnv(workers, 1))

	// Set-up: generate the fixture and verify it once (the reference
	// every timed verdict must match), several times over.
	var (
		text      string
		props     []expresso.Kind
		reference []expresso.Violation
		// refEng and refVs are a replayed verification whose engine the
		// concrete witness replay runs in.
		refEng   *epvp.Engine
		refVs    []expresso.Violation
		untraced []float64
		// wrong is set when a check outside the timed window finds the
		// verdict every request returned to be wrong.
		wrong error
	)
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		text, props = coldFixture(cfg.workload, cfg.seed)
		var vs []expresso.Violation
		if cfg.trace {
			// The untraced reference the traced replays are held to.
			t1 := time.Now()
			var err error
			if vs, err = verifyCold(text, props, workers); err != nil {
				return nil, fmt.Errorf("set-up verification: %w", err)
			}
			untraced = append(untraced, ms(time.Since(t1)))
		} else {
			// The replayed path, whose engine the witness replay needs.
			rp, err := replayCold(ctx, nil, 0, text, props, workers)
			if err != nil {
				return nil, fmt.Errorf("set-up verification: %w", err)
			}
			vs, refEng, refVs = rp.violations, rp.eng, rp.violations
		}
		if reference != nil && !sameIdentities(reference, vs) {
			wrong = fmt.Errorf("set-up verifications disagree")
		}
		reference = vs
		r.SetupRuns = append(r.SetupRuns, time.Since(t0).Seconds())
	}
	// Replay the set-up verification's witnesses now, so its engine is not
	// kept alive through the timed window.
	if refEng != nil {
		if err := confirmRouting(refEng, refVs); err != nil {
			wrong = err
		}
		refEng, refVs = nil, nil
	}
	runtime.GC()

	var rec *Recorder
	if cfg.trace {
		rec = newRecorder()
	}
	var lat []float64
	counters := map[string][]float64{}
	cpu0 := cpuSeconds()
	start := time.Now()
	deadline := start.Add(cfg.duration)
	for req := 1; time.Now().Before(deadline); req++ {
		t := time.Now()
		var (
			vs  []expresso.Violation
			err error
		)
		if cfg.trace {
			var rp *replay
			if rp, err = replayCold(ctx, rec, req, text, props, workers); err == nil {
				vs, refEng, refVs = rp.violations, rp.eng, rp.violations
				for k, v := range rp.counters {
					counters[k] = append(counters[k], v)
				}
			}
		} else {
			vs, err = verifyCold(text, props, workers)
		}
		r.Attempted++
		switch {
		case err != nil:
			r.fail(fmt.Sprintf("request %d: %v", req, err))
		case !sameIdentities(vs, reference):
			r.fail(fmt.Sprintf("request %d: verdict differs from the reference", req))
		default:
			lat = append(lat, ms(time.Since(t)))
		}
	}
	elapsed := time.Since(start)
	cpu := cpuSeconds() - cpu0
	rss := peakRSSMB()

	// Verdict checks outside the timed window.
	if cfg.seed == 1 {
		if err := checkGolden(cfg.workload, reference); err != nil {
			wrong = err
		}
	}
	if refEng != nil {
		if err := confirmRouting(refEng, refVs); err != nil {
			wrong = err
		}
	}
	if wrong != nil {
		r.wrongAll(wrong.Error())
	}
	r.note("violations=%d", len(reference))

	if !cfg.trace {
		// One client gets a handful of verdicts per run: no percentile
		// above the median keeps ten samples beyond it.
		r.endToEnd(lat, 0.5, elapsed, cpu, rss)
		return r, nil
	}
	r.spans = rec.finish()
	r.perLayer(coldLayers(r.spans, counters, untraced))
	return r, nil
}

// coldLayers turns a traced cold run into per-layer values: each layer's
// median self time, the median of each counter read at the layer
// boundaries, and the tracing overhead against the untraced set-up
// verifications.
func coldLayers(spans []Span, counters map[string][]float64, untraced []float64) map[string]float64 {
	layers := perLayerZero()
	self := selfByName(spans)
	for _, name := range []string{spanLoad, spanCompile, spanRounds, spanRouting, spanSPF, spanForwarding} {
		layers[name+".ms"] = median(self[name])
	}
	for k, vs := range counters {
		layers[k] = median(vs)
	}
	layers["src.status_miss"] = float64(len(self[spanVerify]))
	var traced []float64
	for _, s := range spans {
		if s.Name == spanVerify {
			traced = append(traced, s.EndMS-s.StartMS)
		}
	}
	if u := median(untraced); u > 0 {
		layers["trace.overhead_pct"] = 100 * (median(traced) - u) / u
	}
	return layers
}
