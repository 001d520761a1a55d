package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"github.com/expresso-verify/expresso/internal/bdd"
	"github.com/expresso-verify/expresso/internal/epvp"
	"github.com/expresso-verify/expresso/internal/properties"
	"github.com/expresso-verify/expresso/internal/route"
	"github.com/expresso-verify/expresso/internal/spf"
	"github.com/expresso-verify/expresso/internal/store"
	"github.com/expresso-verify/expresso/internal/telemetry"
)

// heapPressureThreshold is the post-SRC heap-pressure cutoff (see
// relieveHeap). Small enough that full-old-scale verifications cross it
// every time (the benchmark's scaled full-old holds 237–239 MiB after
// SRC), large enough that testnet-sized service traffic never pays a
// forced GC per request. HeapAlloc counts garbage not yet collected, so
// region-1 runs (22–140 MiB) cross it only when a collection is due. A
// variable only so tests can lower it.
var heapPressureThreshold uint64 = 128 << 20

// relieveHeap is the fixed post-SRC memory rule: when the live heap holds
// at least heapPressureThreshold after the fixed point, drop the
// manager's default-worker op caches (pure acceleration state the
// analysis stages rebuild) and force a garbage collection. The caches
// belong to every artifact sharing the manager, so they are dropped under
// the run lock; the collection runs after it is released. Reports whether
// the rule fired.
func relieveHeap(src *SRCArtifact) bool {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc < heapPressureThreshold {
		return false
	}
	src.lock()
	src.Eng.Space.M.ClearCaches()
	src.unlock()
	runtime.GC()
	return true
}

// Stage statuses recorded in StageInfo provenance entries.
const (
	StatusHit  = "hit"  // artifact served from the stage cache
	StatusMiss = "miss" // artifact computed cold
	StatusWarm = "warm" // SRC only: computed, but seeded from a cached prior
	StatusDisk = "disk" // artifact deserialized from the persistent store tier
)

// StageInfo is one stage's provenance: what ran, from where, how long.
// The CLI's -explain-cache renders these, and expresso.RunInfo carries
// them back to API callers.
type StageInfo struct {
	Stage    string        `json:"stage"`
	Status   string        `json:"status"`
	Key      string        `json:"key"`
	Duration time.Duration `json:"duration_ns"`
	// Start is the stage's wall-clock start; trace spans are placed by it.
	Start time.Time `json:"-"`
	// Seed is the digest of the prior SRC artifact a warm start chained
	// on ("" for every other provenance) — a first-class column in the
	// CLI's -explain-cache table and the trace spans.
	Seed string `json:"seed,omitempty"`
	// Note carries stage-specific detail: the warm-start dirty count, the
	// anchoring baseline's name, and whether the post-SRC reclamation
	// fired.
	Note string `json:"note,omitempty"`
}

// Request describes one verification to a Runner. Mode must be resolved
// (the zero-Mode-means-FullMode default is the public API's business);
// Properties may be in any order and are split into the canonical
// per-stage subsets.
type Request struct {
	Load       *LoadArtifact
	Mode       epvp.Mode
	Properties []properties.Kind
	BTE        route.Community
	Workers    int
	// Baseline names the registered baseline this request is a delta
	// against (""= none). When set and the Runner has a registry, the SRC
	// stage anchors on the baseline's pinned converged state: an exact
	// config match serves it directly, anything else warm-starts from it.
	// Like the stage cache, the anchor never changes what a report says.
	Baseline string
	// Trace, when non-nil, receives fine-grained engine events for the
	// stages that actually compute (EPVP rounds, SPF per-router work) and
	// the SRC stage's compile and rounds child spans (SpanCompile,
	// SpanRounds). Stage spans themselves are recorded by the caller from
	// the Outcome's StageInfos. Like Workers, Trace never changes a
	// report's content and is absent from every cache key.
	Trace *telemetry.Tracer
}

// Outcome is a completed run: the artifacts of every stage that executed
// (Routing is always present; SPF and Forwarding only when a forwarding
// property was requested) plus per-stage provenance in pipeline order.
type Outcome struct {
	SRC        *SRCArtifact
	Routing    *AnalysisArtifact
	SPF        *SPFArtifact
	Forwarding *AnalysisArtifact
	Stages     []StageInfo
}

// warmNodeBudget bounds the live BDD node count of a manager the Runner
// is willing to warm-start into. Warm chains share one manager; dead-node
// reclamation between EPVP rounds keeps the live population bounded, but
// a manager whose pinned artifacts alone exceed the budget is past the
// point where a cold start with a fresh manager is cheaper than dragging
// the old universe along.
const warmNodeBudget = 4 << 20

// Runner executes the staged pipeline. A nil Cache runs every stage cold
// — byte-identical results, no reuse — which is exactly what the plain
// expresso.Verify path wants (its determinism tests compare repeated
// runs, including iteration counts).
type Runner struct {
	Cache *StageCache
	// Store, when non-nil, is the persistent second tier under the stage
	// cache: SRC, SPF, and analysis artifacts are written through to it
	// and, on an in-memory miss, read back and deserialized into a fresh
	// manager — so a cold process (or a second replica sharing the store
	// directory) warm-starts from a previously converged state. Store
	// traffic is keyed by the hash of the stage key and gated on the same
	// text-born condition as the cache; failures degrade to recompute.
	Store store.Tier
	// Baselines, when non-nil, resolves Request.Baseline names to pinned
	// converged states — the explicit warm-start anchor tier between the
	// exact-key lookups and the opportunistic warm-candidate scan.
	Baselines *BaselineRegistry
}

// diskKey is the store address of a stage key: stage keys embed '|'-joined
// digest chains, so the store sees their hash (a content address of a
// content address — collision-free for the same reason the keys are).
func diskKey(key string) string { return hashHex(key) }

// Run drives Load's downstream stages to an Outcome. req.Load must be
// set; stages are cached and warm-started only when the load carries a
// digest (text-born) and the Runner has a cache.
func (r *Runner) Run(ctx context.Context, req *Request) (*Outcome, error) {
	if req.Load == nil || req.Load.Net == nil {
		return nil, errors.New("pipeline: request carries no loaded network")
	}
	if req.Mode.IsZero() {
		return nil, errors.New("pipeline: request Mode must be resolved by the caller")
	}
	routingProps, forwardingProps := SplitProperties(req.Properties)
	for _, p := range routingProps {
		if p == properties.BlockToExternal && req.BTE == 0 {
			return nil, fmt.Errorf("expresso: BlockToExternal requires Options.BTE")
		}
	}
	cacheable := r.Cache != nil && req.Load.Digest != ""
	diskable := r.Store != nil && req.Load.Digest != ""
	out := &Outcome{}

	// --- SRC: the EPVP fixed point -------------------------------------
	srcKey := SRCKey(req.Load.Digest, req.Mode)
	start := time.Now()
	src, info, err := r.resolveSRC(ctx, req, srcKey, cacheable, diskable)
	if err != nil {
		return nil, err
	}
	info.Start, info.Duration = start, time.Since(start)
	out.SRC = src
	out.Stages = append(out.Stages, info)

	// --- RoutingAnalysis -----------------------------------------------
	routingKey := RoutingKey(src.Digest, routingProps, req.BTE)
	start = time.Now()
	routing, status, err := r.resolveAnalysis(ctx, StageRouting, routingKey, cacheable, diskable, src, 0, func() ([]properties.Violation, error) {
		var vs []properties.Violation
		for _, k := range routingProps {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			switch k {
			case properties.RouteLeakFree:
				vs = append(vs, properties.CheckRouteLeak(src.Eng, src.Res)...)
			case properties.RouteHijackFree:
				vs = append(vs, properties.CheckRouteHijack(src.Eng, src.Res)...)
			case properties.BlockToExternal:
				vs = append(vs, properties.CheckBlockToExternal(src.Eng, src.Res, req.BTE)...)
			}
		}
		return vs, nil
	})
	if err != nil {
		return nil, err
	}
	out.Routing = routing
	out.Stages = append(out.Stages, StageInfo{Stage: StageRouting, Status: status, Key: routingKey, Start: start, Duration: time.Since(start)})

	if len(forwardingProps) == 0 {
		return out, nil
	}

	// --- SPF: symbolic packet forwarding -------------------------------
	spfKey := SPFKey(src.Digest)
	start = time.Now()
	var spfArt *SPFArtifact
	status = StatusMiss
	if cacheable {
		if v, ok := r.Cache.Get(StageSPF, spfKey); ok {
			spfArt = v.(*SPFArtifact)
			status = StatusHit
		}
	}
	if spfArt == nil && diskable {
		if data, ok := r.Store.Get(StageSPF, diskKey(spfKey)); ok {
			// Deserialization allocates the data-plane variable block and
			// builds nodes in the shared SRC manager: serialize against its
			// other users exactly like a computed SPF run.
			src.lock()
			src.buildLock.Lock() // allocates the data-plane variables
			art, derr := DecodeSPF(src.Eng, spfKey, data)
			src.buildLock.Unlock()
			if derr == nil {
				art.pinHandles(src.Eng.Space.M)
			}
			src.unlock()
			if derr == nil {
				spfArt = art
				status = StatusDisk
				if cacheable {
					r.Cache.Add(StageSPF, spfKey, spfArt)
				}
			}
		}
	}
	if spfArt == nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		src.lock()
		// Collection barrier before SPF: the fixed point's intermediates
		// are garbage now, and SPF is about to add 33 data-plane variables
		// per neighbor and build a large fresh population on top. The roots
		// are this request's working set — pins cover the cached
		// artifacts, but an artifact evicted mid-request must survive its
		// own run too.
		src.Eng.Collect(append(src.handles(), routing.handles()...)...)
		src.buildLock.Lock() // SPF allocates its data-plane variables
		dp, err := spf.RunTraced(ctx, src.Eng, src.Res, req.Trace)
		src.buildLock.Unlock()
		if err == nil {
			// Pinned before the lock is released: another request's
			// barrier may sweep the manager as soon as it is.
			spfArt = &SPFArtifact{Key: spfKey, Digest: hashHex(spfKey), Res: dp}
			spfArt.pinHandles(src.Eng.Space.M)
		}
		src.unlock()
		if err != nil {
			return nil, err
		}
		if cacheable {
			r.Cache.Add(StageSPF, spfKey, spfArt)
		}
		if diskable {
			src.lock()
			blob := EncodeSPF(spfArt, src.Eng.Space.M)
			src.unlock()
			r.Store.Put(StageSPF, diskKey(spfKey), blob)
		}
	}
	out.SPF = spfArt
	out.Stages = append(out.Stages, StageInfo{Stage: StageSPF, Status: status, Key: spfKey, Start: start, Duration: time.Since(start)})

	// --- ForwardingAnalysis --------------------------------------------
	forwardingKey := ForwardingKey(spfArt.Digest, forwardingProps)
	start = time.Now()
	forwarding, status, err := r.resolveAnalysis(ctx, StageForwarding, forwardingKey, cacheable, diskable, src, spfArt.Res.VarBase(), func() ([]properties.Violation, error) {
		var vs []properties.Violation
		for _, k := range forwardingProps {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			switch k {
			case properties.TrafficHijackFree:
				vs = append(vs, properties.CheckTrafficHijack(src.Eng, spfArt.Res)...)
			case properties.BlackHoleFree:
				vs = append(vs, properties.CheckBlackHole(src.Eng, spfArt.Res,
					properties.InternalDestPredicate(src.Eng, spfArt.Res))...)
			case properties.LoopFree:
				vs = append(vs, properties.CheckLoop(src.Eng, spfArt.Res)...)
			}
		}
		return vs, nil
	})
	if err != nil {
		return nil, err
	}
	out.Forwarding = forwarding
	out.Stages = append(out.Stages, StageInfo{Stage: StageForwarding, Status: status, Key: forwardingKey, Start: start, Duration: time.Since(start)})
	return out, nil
}

// resolveSRC returns the SRC artifact for the request: cached when the
// exact key is present, deserialized from the persistent tier when it
// holds the key, served or warm-started from the request's named baseline
// when one is registered, warm-started from a compatible cached prior
// when one exists, cold otherwise.
func (r *Runner) resolveSRC(ctx context.Context, req *Request, srcKey string, cacheable, diskable bool) (*SRCArtifact, StageInfo, error) {
	info := StageInfo{Stage: StageSRC, Status: StatusMiss, Key: srcKey}
	if cacheable {
		if v, ok := r.Cache.Get(StageSRC, srcKey); ok {
			info.Status = StatusHit
			return v.(*SRCArtifact), info, nil
		}
	}
	// The named baseline with the exact key beats everything else: its
	// converged state is already resident and pinned, so serving it costs
	// nothing — and unlike the stage cache, it cannot have been evicted.
	var baseline *Baseline
	if req.Baseline != "" && r.Baselines != nil {
		if b, ok := r.Baselines.Get(req.Baseline); ok && b.SRC.Eng.Mode == req.Mode {
			baseline = b
			if b.SRC.Key == srcKey {
				// Served straight from the registry — never re-inserted
				// into the stage cache, whose eviction unpin would race
				// the registry's own pin bookkeeping. The artifact stays
				// resident through the baseline's pins alone.
				info.Status = StatusHit
				info.Note = "baseline=" + b.Name
				return b.SRC, info, nil
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, info, err
	}

	var src *SRCArtifact
	// compile is the policy compilation of a fresh engine, traced as the
	// SRC stage's compile child span.
	compile := func() (*epvp.Engine, error) {
		start := time.Now()
		eng, err := epvp.NewContext(ctx, req.Load.Net, req.Mode)
		req.Trace.Span(SpanCompile, "", "", "", "", start, time.Since(start))
		return eng, err
	}
	// The persistent tier beats a warm start: it carries the exact
	// converged fixed point for this key, so only the policy compilation
	// is paid. A decode failure — corrupt blob, schema mismatch — falls
	// through to recompute, reusing the compiled engine.
	var eng *epvp.Engine
	if diskable {
		if data, ok := r.Store.Get(StageSRC, diskKey(srcKey)); ok {
			var err error
			if eng, err = compile(); err != nil {
				return nil, info, err
			}
			if decoded, err := DecodeSRC(eng, req.Load, srcKey, data); err == nil {
				src = decoded
				info.Status = StatusDisk
			}
		}
	}
	// The named baseline is the explicit warm anchor: deterministic, pinned,
	// independent of cache pressure. The opportunistic scan over whatever
	// the SRC cache still holds remains as the fallback for anonymous
	// requests.
	if src == nil && baseline != nil && baseline.SRC.Eng.Space.M.NumNodes() < warmNodeBudget {
		warmed, dirty, err := r.warmFrom(ctx, req, srcKey, baseline.SRC)
		if err != nil {
			return nil, info, err
		}
		if warmed != nil {
			src = warmed
			info.Status = StatusWarm
			info.Seed = baseline.SRC.Digest
			info.Note = fmt.Sprintf("baseline=%s dirty=%d", baseline.Name, dirty)
			if cacheable {
				r.Cache.NoteWarm()
			}
		}
	}
	if src == nil && cacheable {
		if prior := r.warmCandidate(req.Mode); prior != nil {
			warmed, dirty, err := r.warmFrom(ctx, req, srcKey, prior)
			if err != nil {
				return nil, info, err
			}
			if warmed != nil {
				src = warmed
				info.Status = StatusWarm
				info.Seed = prior.Digest
				info.Note = fmt.Sprintf("dirty=%d", dirty)
				r.Cache.NoteWarm()
			}
		}
	}
	if src == nil {
		// eng may be left over from a failed store decode; otherwise
		// compile now.
		if eng == nil {
			var err error
			if eng, err = compile(); err != nil {
				return nil, info, err
			}
		}
		eng.Workers = req.Workers
		eng.Trace = req.Trace
		start := time.Now()
		res, err := eng.RunContext(ctx)
		req.Trace.Span(SpanRounds, "", "", "", "", start, time.Since(start))
		eng.Trace = nil // the engine outlives the run in the cache
		if err != nil {
			return nil, info, err
		}
		src = (&SRCArtifact{
			Key: srcKey, Digest: hashHex(srcKey),
			Eng: eng, Res: res, Load: req.Load,
			Workers: eng.WorkerCount(),
		}).ownLocks()
	}
	// Root the fixed point against dead-node reclamation before anything
	// else (a concurrent warm run, this request's own pre-SPF sweep) can
	// sweep the manager. Pinned even when uncacheable: the sweep points
	// downstream rely on it. A warm result lives in a manager other
	// requests share, so warmFrom pins it before releasing the run lock.
	if info.Status != StatusWarm {
		src.pinHandles()
	}
	if cacheable {
		r.Cache.Add(StageSRC, srcKey, src)
	}
	// Write a freshly computed fixed point through to the persistent tier
	// (a deserialized one is already there byte-for-byte).
	if diskable && info.Status != StatusDisk {
		src.lock()
		blob := EncodeSRC(src)
		src.unlock()
		r.Store.Put(StageSRC, diskKey(srcKey), blob)
	}
	gcNote := "gc=skipped"
	if relieveHeap(src) {
		gcNote = "gc=forced"
	}
	if info.Note != "" {
		info.Note += " "
	}
	info.Note += gcNote
	return src, info, nil
}

// warmFrom seeds the EPVP fixed point for srcKey from a prior converged
// artifact: compile only the changed routers' policies (epvp.NewWarm),
// then recompute the dirty closure from the prior RIBs. Returns (nil, 0,
// nil) when the universes are incompatible — the caller falls through to
// the next resolution tier. The warmed artifact computes in the prior's
// manager and therefore shares its run lock.
func (r *Runner) warmFrom(ctx context.Context, req *Request, srcKey string, prior *SRCArtifact) (*SRCArtifact, int, error) {
	// The compile builds nodes in the prior artifact's manager while
	// other requests may run on it. Holding the build lock's read side
	// keeps their collections and variable allocations out, and pinning
	// the compiled transfers keeps a collection between the compile and
	// the run from freeing them. The run holds the run lock until its
	// result is pinned.
	m := prior.Eng.Space.M
	prior.buildLock.RLock()
	eng, err := epvp.NewWarm(ctx, req.Load.Net, req.Mode, prior.Eng, UnchangedRouters(prior.Load, req.Load))
	var compiled []bdd.Node
	if err == nil {
		compiled = eng.Roots()
		m.Pin(compiled...)
	}
	prior.buildLock.RUnlock()
	if err != nil {
		return nil, 0, nil
	}
	defer m.Unpin(compiled...)
	dirty := DirtyRouters(prior.Load, req.Load)
	eng.Workers = req.Workers
	eng.Trace = req.Trace
	eng.Quiesce = prior.buildLock
	prior.lock()
	defer prior.unlock()
	res, err := eng.RunWarmContext(ctx, prior.Res, dirty)
	eng.Trace = nil // the engine outlives the run in the cache
	if err != nil {
		return nil, 0, err
	}
	src := &SRCArtifact{
		Key: srcKey, Digest: hashHex(srcKey),
		Eng: eng, Res: res, Load: req.Load,
		Workers: eng.WorkerCount(),
		// shared manager, shared locks
		runLock: prior.runLock, buildLock: prior.buildLock,
	}
	src.pinHandles()
	return src, len(dirty), nil
}

// warmCandidate scans the SRC stage for the most recently used artifact a
// warm start may chain on: same mode, text-born (diffable), and a node
// table still under budget. The compatibility of the symbolic universes
// (externals, community atoms) is re-checked by epvp.NewWarm.
func (r *Runner) warmCandidate(mode epvp.Mode) *SRCArtifact {
	var found *SRCArtifact
	r.Cache.Scan(StageSRC, func(v any) bool {
		a := v.(*SRCArtifact)
		if a.Eng.Mode == mode && a.Load.Digest != "" && a.Eng.Space.M.NumNodes() < warmNodeBudget {
			found = a
			return true
		}
		return false
	})
	return found
}

// resolveAnalysis is the shared cache-or-compute driver of the two
// analysis stages. compute runs under src's run lock. The violations'
// condition predicates live in src's prefix manager; the artifact pins
// them there before the lock is released. varBase is the data-plane
// variable offset forwarding-stage conditions are built against (0 for the
// routing stage) — the store codec relocates persisted predicates when the
// offsets differ between processes.
func (r *Runner) resolveAnalysis(ctx context.Context, stage, key string, cacheable, diskable bool, src *SRCArtifact, varBase int, compute func() ([]properties.Violation, error)) (*AnalysisArtifact, string, error) {
	m := src.Eng.Space.M
	if cacheable {
		if v, ok := r.Cache.Get(stage, key); ok {
			return v.(*AnalysisArtifact), StatusHit, nil
		}
	}
	if diskable {
		if data, ok := r.Store.Get(stage, diskKey(key)); ok {
			src.lock()
			art, err := DecodeAnalysis(m, key, varBase, data)
			if err == nil {
				art.pinHandles(m)
			}
			src.unlock()
			if err == nil {
				if cacheable {
					r.Cache.Add(stage, key, art)
				}
				return art, StatusDisk, nil
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, StatusMiss, err
	}
	src.lock()
	vs, err := compute()
	art := &AnalysisArtifact{Key: key, Violations: vs}
	if err == nil {
		art.pinHandles(m)
	}
	src.unlock()
	if err != nil {
		return nil, StatusMiss, err
	}
	if cacheable {
		r.Cache.Add(stage, key, art)
	}
	if diskable {
		src.lock()
		blob := EncodeAnalysis(art, m, varBase)
		src.unlock()
		r.Store.Put(stage, diskKey(key), blob)
	}
	return art, StatusMiss, nil
}
