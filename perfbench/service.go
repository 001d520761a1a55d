package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/expresso-verify/expresso"
	"github.com/expresso-verify/expresso/internal/epvp"
	"github.com/expresso-verify/expresso/internal/netgen"
	"github.com/expresso-verify/expresso/internal/pipeline"
	"github.com/expresso-verify/expresso/internal/properties"
	"github.com/expresso-verify/expresso/internal/service"
)

const (
	baselineName = "region1"
	// reportCacheCap is the server's report-cache capacity: below the
	// resubmission pool, so only recent resubmissions hit memory.
	reportCacheCap = 4
	// oldSkip is how many completions back an "old" resubmission reaches:
	// past the report cache and the 4-entry SRC cache, so the store
	// serves it.
	oldSkip = 12
	// primeEdits is the number of fresh edits each client submits during
	// set-up, so old resubmissions have candidates from the start.
	primeEdits = 4
	// warmReplays is how many distinct fresh edits the traced run
	// replays call by call to split the warm SRC stage into compile and
	// rounds.
	warmReplays = 8
)

var serviceProps = []string{"leak", "hijack"}

// rig is one running server with the region-1 baseline registered.
type rig struct {
	srv      *service.Server
	ts       *httptest.Server
	dir      string
	text     string
	baseline []expresso.Violation
	ed       *editor
}

func startRig(cfg runConfig, rep, workers int) (*rig, error) {
	text := netgen.CSP(seeded(netgen.CSPOldRegion(1), cfg.seed))
	dir, err := filepath.Abs(filepath.Join(cfg.out, "tmp", fmt.Sprintf("store-%d-%d", os.Getpid(), rep)))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	srv := service.New(service.Config{
		Workers:   workers,
		CacheSize: reportCacheCap,
		StoreDir:  dir,
		Logger:    slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	srv.Start()
	mux := http.NewServeMux()
	mux.Handle("/debug/", srv.DebugHandler())
	mux.Handle("/", srv.Handler())
	g := &rig{srv: srv, ts: httptest.NewServer(mux), dir: dir, text: text}

	body, err := json.Marshal(service.BaselineRequest{Name: baselineName, Config: text, Properties: serviceProps})
	if err != nil {
		g.stop()
		return nil, err
	}
	resp, err := http.Post(g.ts.URL+"/v1/baselines", "application/json", bytes.NewReader(body))
	if err != nil {
		g.stop()
		return nil, fmt.Errorf("register baseline: %w", err)
	}
	var st service.BaselineStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusCreated || st.Report == nil {
		g.stop()
		return nil, fmt.Errorf("register baseline: status %d: %v", resp.StatusCode, err)
	}
	g.baseline = st.Report.Violations
	g.ed = newEditor(text, cfg.seed)
	return g, nil
}

// stop closes the listener, drains the server and removes its store.
func (g *rig) stop() {
	g.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	g.srv.Drain(ctx)
	os.RemoveAll(g.dir)
}

// outcome is one client request.
type outcome struct {
	ed         *edit
	fresh      bool
	start, end time.Time
	code       int
	status     *service.JobStatus
	err        error
}

func (o *outcome) latencyMS() float64 { return ms(o.end.Sub(o.start)) }

// drive runs closed-loop clients, each on one keep-alive connection, until
// the deadline passes or each has sent limit requests (limit 0 = no
// limit). With mix set, every fourth request of a client resubmits an
// earlier edit, alternating between a recent and an old one; all other
// requests are fresh edits.
func (g *rig) drive(clients int, deadline time.Time, limit int, mix bool) []outcome {
	var (
		mu  sync.Mutex
		all []outcome
		wg  sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
			defer tr.CloseIdleConnections()
			hc := &http.Client{Transport: tr, Timeout: 2 * time.Minute}
			for k := 0; (limit == 0 || k < limit) && time.Now().Before(deadline); k++ {
				o := outcome{fresh: true}
				if mix && k%4 == 3 {
					if ed := g.ed.resubmission((k/4)%2 == 1, oldSkip); ed != nil {
						o.ed, o.fresh = ed, false
					}
				}
				if o.ed == nil {
					if o.ed, o.err = g.ed.fresh(); o.err != nil {
						mu.Lock()
						all = append(all, o)
						mu.Unlock()
						return
					}
				}
				g.send(hc, &o)
				if o.fresh && o.status != nil && o.status.State == service.JobDone {
					g.ed.completed(o.ed)
				}
				mu.Lock()
				all = append(all, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return all
}

// send posts one delta job and waits for its verdict.
func (g *rig) send(hc *http.Client, o *outcome) {
	body, err := json.Marshal(service.DeltaRequest{Baseline: baselineName, Patch: o.ed.patch, Properties: serviceProps, Wait: true})
	if err != nil {
		o.err = err
		return
	}
	o.start = time.Now()
	defer func() { o.end = time.Now() }()
	resp, err := hc.Post(g.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return
	}
	defer resp.Body.Close()
	o.code = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return
	}
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		o.err = err
		return
	}
	o.status = &st
}

// scrape reads the unlabelled counters of GET /metrics.
func (g *rig) scrape() (map[string]float64, error) {
	resp, err := http.Get(g.ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") || strings.Contains(f[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// debugBDD reads GET /debug/bdd: the server's live BDD managers and the
// process-wide reclamation and reordering totals.
func (g *rig) debugBDD() (map[string]float64, error) {
	resp, err := http.Get(g.ts.URL + "/debug/bdd")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc struct {
		Managers []struct {
			Profile struct {
				LiveNodes     int64 `json:"live_nodes"`
				PeakLiveNodes int64 `json:"peak_live_nodes"`
			} `json:"profile"`
		} `json:"managers"`
		Reclaim struct {
			Runs  int64 `json:"Runs"`
			Pause int64 `json:"Pause"`
		} `json:"reclaim"`
		Reorder struct {
			Runs int64 `json:"runs"`
		} `json:"reorder"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decode /debug/bdd: %w", err)
	}
	out := map[string]float64{
		"bdd.reclaim_runs":     float64(doc.Reclaim.Runs),
		"bdd.reclaim_pause_ms": float64(doc.Reclaim.Pause) / 1e6,
		"bdd.sift_runs":        float64(doc.Reorder.Runs),
	}
	for _, m := range doc.Managers {
		out["bdd.end_live_nodes"] += float64(m.Profile.LiveNodes)
		out["bdd.peak_live_nodes"] = max(out["bdd.peak_live_nodes"], float64(m.Profile.PeakLiveNodes))
	}
	return out, nil
}

// coldCheck is the cold verification of one config: its violations, or
// the error of the verification or of its concrete witness replay.
type coldCheck struct {
	violations []expresso.Violation
	err        error
}

// crossCheck verifies each text cold, outside the timed window, with one
// goroutine per core, and replays its routing violations concretely.
func crossCheck(texts map[int]string, workers int) map[int]coldCheck {
	ids := make(chan int)
	var (
		mu  sync.Mutex
		out = map[int]coldCheck{}
		wg  sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range ids {
				var c coldCheck
				rp, err := replayCold(context.Background(), nil, 0, texts[id], propsRouting, 1)
				if err != nil {
					c.err = err
				} else {
					c.violations, c.err = rp.violations, confirmRouting(rp.eng, rp.violations)
				}
				mu.Lock()
				out[id] = c
				mu.Unlock()
			}
		}()
	}
	for id := range texts {
		ids <- id
	}
	close(ids)
	wg.Wait()
	return out
}

// runService drives region1-delta-service.
func runService(cfg runConfig) (*Result, error) {
	clients := runtime.NumCPU()
	r := newResult(cfg, currentEnv(1, clients))

	// Set-up: start a server, register the baseline and prime the
	// resubmission pool, several times over; the last rig serves the run.
	var (
		g       *rig
		priming []float64
	)
	for rep := 0; rep < setupReps; rep++ {
		if g != nil {
			g.stop()
		}
		t0 := time.Now()
		var err error
		if g, err = startRig(cfg, rep, clients); err != nil {
			return nil, err
		}
		for _, o := range g.drive(clients, time.Now().Add(time.Minute), primeEdits, false) {
			switch {
			case o.status != nil && o.status.State == service.JobDone:
				priming = append(priming, o.latencyMS())
			case o.status != nil && o.status.State == service.JobSuperseded:
				// Coalesced into the other client's newer delta: no verdict.
			default:
				g.stop()
				return nil, fmt.Errorf("set-up delta failed: HTTP %d: %v", o.code, o.err)
			}
		}
		r.SetupRuns = append(r.SetupRuns, time.Since(t0).Seconds())
	}
	defer g.stop()
	runtime.GC()

	var (
		before, bddBefore map[string]float64
		rec               *Recorder
	)
	if cfg.trace {
		rec = newRecorder()
		var err error
		if before, err = g.scrape(); err != nil {
			return nil, err
		}
		if bddBefore, err = g.debugBDD(); err != nil {
			return nil, err
		}
	}
	cpu0 := cpuSeconds()
	start := time.Now()
	outs := g.drive(clients, start.Add(cfg.duration), 0, true)
	elapsed := time.Since(start)
	cpu := cpuSeconds() - cpu0
	rss := peakRSSMB()
	// Read the server's counters before the cold cross-check below adds
	// its own BDD work to the process-wide totals.
	var after, bddAfter map[string]float64
	if cfg.trace {
		var err error
		if after, err = g.scrape(); err != nil {
			return nil, err
		}
		if bddAfter, err = g.debugBDD(); err != nil {
			return nil, err
		}
	}

	// Verdict checks outside the timed window: the baseline against the
	// golden set and a cold run, every distinct delta against a cold run,
	// and every routing violation against the concrete replay.
	texts := map[int]string{0: g.text}
	for _, o := range outs {
		if o.ed != nil {
			texts[o.ed.id] = o.ed.text
		}
	}
	cold := crossCheck(texts, clients)
	var baselineWrong error
	if cfg.seed == 1 {
		baselineWrong = checkGolden(cfg.workload, g.baseline)
	}
	if c := cold[0]; c.err != nil {
		baselineWrong = fmt.Errorf("baseline: %w", c.err)
	} else if !sameIdentities(c.violations, g.baseline) {
		baselineWrong = fmt.Errorf("baseline verdict differs from its cold run")
	}

	var (
		lat, freshLat, violations      []float64
		rejected, coalesced, cacheHits int
	)
	for _, o := range outs {
		r.Attempted++
		switch {
		case o.err != nil:
			r.fail(o.err.Error())
		case o.code == http.StatusServiceUnavailable:
			rejected++
			r.fail("503 from the server")
		case o.status == nil:
			r.fail(fmt.Sprintf("HTTP %d", o.code))
		case o.status.State == service.JobSuperseded:
			coalesced++
		case o.status.State != service.JobDone || o.status.Report == nil:
			r.fail(fmt.Sprintf("job %s ended %s: %s", o.status.ID, o.status.State, o.status.Error))
		default:
			c := cold[o.ed.id]
			switch {
			case c.err != nil:
				r.fail(fmt.Sprintf("cold check of edit %d: %v", o.ed.id, c.err))
			case !sameIdentities(o.status.Report.Violations, c.violations):
				r.fail(fmt.Sprintf("edit %d: verdict differs from its cold run", o.ed.id))
			default:
				lat = append(lat, o.latencyMS())
				violations = append(violations, float64(len(c.violations)))
				if o.fresh {
					freshLat = append(freshLat, o.latencyMS())
				}
				if o.status.CacheHit {
					cacheHits++
				}
			}
		}
	}
	if baselineWrong != nil {
		r.wrongAll(baselineWrong.Error())
	}
	r.note("distinct configs checked cold: %d", len(texts))

	if !cfg.trace {
		// Two clients get 40 to 100 verdicts per run, so p75 keeps ten
		// or more beyond it.
		r.endToEnd(lat, 0.75, elapsed, cpu, rss)
		return r, nil
	}

	layers := perLayerZero()
	// Live and peak nodes are the managers' state at the end of the
	// window; reclamation and sifting totals are process-wide, so only
	// the window's share counts.
	for k, v := range bddAfter {
		switch k {
		case "bdd.reclaim_runs", "bdd.reclaim_pause_ms", "bdd.sift_runs":
			v -= bddBefore[k]
		}
		layers[k] = v
	}
	for k, name := range map[string]string{
		"store.writes":      "expresso_store_writes_total",
		"store.write_bytes": "expresso_store_write_bytes_total",
		"store.hits":        "expresso_store_hits_total",
		"store.misses":      "expresso_store_misses_total",
	} {
		layers[k] = after[name] - before[name]
	}
	layers["service.rejected"] = float64(rejected)
	layers["service.coalesced"] = float64(coalesced)
	if len(lat) > 0 {
		layers["report.hit_ratio"] = float64(cacheHits) / float64(len(lat))
	}

	stageMS := map[string][]float64{}
	var queue, verdict, overhead []float64
	for i, o := range outs {
		if o.status == nil {
			continue
		}
		req := i + 1
		root := rec.add(spanRequest, 0, req, o.start, o.end)
		st := o.status
		if st.Finished == nil {
			continue
		}
		v := st.Finished.Sub(st.Created)
		verdict = append(verdict, ms(v))
		overhead = append(overhead, o.latencyMS()-ms(v))
		at := st.Created
		if st.Started != nil {
			queue = append(queue, ms(st.Started.Sub(st.Created)))
			rec.add(spanQueue, root, req, st.Created, *st.Started)
			at = *st.Started
		}
		run := rec.add(spanRun, root, req, at, *st.Finished)
		// Stage provenance carries durations, not start times: lay the
		// stages end to end from the start of the run.
		for _, s := range st.Stages {
			rec.add(s.Stage, run, req, at, at.Add(s.Duration))
			at = at.Add(s.Duration)
			key := s.Stage
			if s.Stage == pipeline.StageSRC {
				layers["src.status_"+s.Status]++
				key = "src." + s.Status
			}
			stageMS[key] = append(stageMS[key], ms(s.Duration))
		}
	}
	layers["load.ms"] = median(stageMS[spanLoad])
	layers["routing_analysis.ms"] = median(stageMS[spanRouting])
	layers["routing_analysis.violations"] = median(violations)
	layers["src.warm_ms"] = median(stageMS["src."+pipeline.StatusWarm])
	layers["src.disk_ms"] = median(stageMS["src."+pipeline.StatusDisk])
	layers["service.queue_wait_ms"] = median(queue)
	layers["service.verdict_ms"] = median(verdict)
	layers["service.http_overhead_ms"] = median(overhead)
	if u := median(priming); u > 0 {
		layers["trace.overhead_pct"] = 100 * (median(freshLat) - u) / u
	}

	// Split the warm SRC stage: replay distinct fresh edits call by call
	// against a cold-built copy of the baseline.
	counters, err := replayWarm(rec, len(outs), g.text, outs, cold)
	if err != nil {
		r.fail(err.Error())
	}
	self := selfByName(rec.finish())
	layers["src.compile.ms"] = median(self[spanCompile])
	layers["src.rounds.ms"] = median(self[spanRounds])
	for k, vs := range counters {
		layers[k] = median(vs)
	}
	r.spans = rec.finish()
	r.perLayer(layers)
	return r, nil
}

// replayWarm replays up to warmReplays distinct fresh edits through the
// warm-start entry points (epvp.NewWarm, Engine.RunWarmContext) against a
// baseline built cold, recording spans under request ids after reqBase.
// Each replay's violations must match the edit's cold check.
func replayWarm(rec *Recorder, reqBase int, baseText string, outs []outcome, cold map[int]coldCheck) (map[string][]float64, error) {
	ctx := context.Background()
	base, err := pipeline.Load(baseText)
	if err != nil {
		return nil, err
	}
	baseEng, err := epvp.NewContext(ctx, base.Net, epvp.FullMode())
	if err != nil {
		return nil, err
	}
	baseEng.Workers = 1
	baseRes, err := baseEng.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	m := baseEng.Space.M
	m.Pin(fixedPointRoots(baseEng, baseRes)...)

	counters := map[string][]float64{}
	seen := map[int]bool{}
	for _, o := range outs {
		if !o.fresh || o.ed == nil || seen[o.ed.id] || len(seen) >= warmReplays {
			continue
		}
		seen[o.ed.id] = true
		req := reqBase + len(seen)
		root := rec.open(spanVerify, 0, req)
		id := rec.open(spanLoad, root, req)
		load, err := pipeline.Load(o.ed.text)
		rec.close(id)
		if err != nil {
			rec.close(root)
			return counters, err
		}
		src := rec.open(spanSRC, root, req)
		_, created0 := m.UniqueStats()
		id = rec.open(spanCompile, src, req)
		eng, err := epvp.NewWarm(ctx, load.Net, epvp.FullMode(), baseEng, pipeline.UnchangedRouters(base, load))
		rec.close(id)
		if err != nil {
			rec.close(src)
			rec.close(root)
			return counters, fmt.Errorf("warm replay of edit %d: %w", o.ed.id, err)
		}
		hits1, created1 := m.UniqueStats()
		id = rec.open(spanRounds, src, req)
		eng.Workers = 1
		res, err := eng.RunWarmContext(ctx, baseRes, pipeline.DirtyRouters(base, load))
		rec.close(id)
		rec.close(src)
		if err != nil {
			rec.close(root)
			return counters, err
		}
		hits2, created2 := m.UniqueStats()
		id = rec.open(spanRouting, root, req)
		vs := append(properties.CheckRouteLeak(eng, res), properties.CheckRouteHijack(eng, res)...)
		rec.close(id)
		rec.close(root)
		if !sameIdentities(vs, cold[o.ed.id].violations) {
			return counters, fmt.Errorf("warm replay of edit %d differs from its cold run", o.ed.id)
		}
		counters["src.compile.nodes_created"] = append(counters["src.compile.nodes_created"], float64(created1-created0))
		counters["src.rounds.nodes_created"] = append(counters["src.rounds.nodes_created"], float64(created2-created1))
		counters["src.rounds.iterations"] = append(counters["src.rounds.iterations"], float64(res.Iterations))
		if n := (hits2 - hits1) + (created2 - created1); n > 0 {
			counters["src.rounds.unique_hit_ratio"] = append(counters["src.rounds.unique_hit_ratio"], float64(hits2-hits1)/float64(n))
		}
	}
	return counters, nil
}
