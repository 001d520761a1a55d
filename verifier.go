package expresso

import (
	"context"
	"time"

	"github.com/expresso-verify/expresso/internal/bdd"
	"github.com/expresso-verify/expresso/internal/pipeline"
	"github.com/expresso-verify/expresso/internal/store"
)

// StageInfo re-exports the pipeline's per-stage provenance record: which
// stage ran, whether its artifact was a cache hit, a cold miss, or a
// warm-started computation, under what key, and how long it took.
type StageInfo = pipeline.StageInfo

// StageCacheStat re-exports one stage's cache counters.
type StageCacheStat = pipeline.StageStat

// Stage provenance statuses (StageInfo.Status).
const (
	StageHit  = pipeline.StatusHit
	StageMiss = pipeline.StatusMiss
	StageWarm = pipeline.StatusWarm
	// StageDisk marks an artifact deserialized from the persistent store
	// tier (see VerifierConfig.StoreDir) rather than recomputed.
	StageDisk = pipeline.StatusDisk
)

// StoreStats re-exports the persistent tier's traffic counters.
type StoreStats = store.Stats

// VerifierConfig sizes a Verifier's per-stage caches. Zero fields take
// the pipeline defaults; negative values disable that stage's cache.
type VerifierConfig struct {
	// LoadCache holds parsed networks keyed by config digest.
	LoadCache int
	// SRCCache holds converged EPVP fixed points — the expensive stage,
	// and the seeds for warm-started re-verification. Each entry pins a
	// BDD manager, so the default is small (4).
	SRCCache int
	// RoutingCache and ForwardingCache hold per-property-set violation
	// lists keyed by upstream artifact digests.
	RoutingCache    int
	ForwardingCache int
	// SPFCache holds symbolic forwarding results (FIBs and PECs).
	SPFCache int
	// ReportCache holds assembled reports keyed by ReportDigest — the
	// same whole-request cache the service used to keep, now the last
	// layer of six.
	ReportCache int
	// StoreDir, when non-empty, enables the persistent artifact store: an
	// on-disk content-addressed tier under the stage caches. SRC, SPF, and
	// analysis artifacts are written through to it and read back on a
	// miss, so a restarted process — or a second replica sharing the
	// directory — serves warm verifications without recomputing the fixed
	// point. A directory that cannot be opened disables the tier silently
	// (persistence is best-effort by design; use Store to check).
	StoreDir string
	// StoreBudget bounds the store directory's size in bytes;
	// least-recently-used blobs are evicted past it. 0 means unlimited.
	StoreBudget int64
}

// Verifier runs text-submitted verifications through the staged pipeline
// with stage-granular caching and incremental EPVP warm-starts:
//
//   - An identical resubmission is answered from the report cache.
//   - A property-set change reuses the converged SRC artifact and re-runs
//     only the analysis stages (adding a forwarding property also reuses
//     a cached SPF artifact if one exists).
//   - A config delta touching a subset of routers warm-starts the EPVP
//     fixed point from the nearest cached converged state, recomputing
//     only the dirty closure — and produces a report byte-identical (up
//     to timings, heap, and iteration counts) to a cold run.
//
// A Verifier is safe for concurrent use; computation on shared symbolic
// state is serialized per SRC artifact.
type Verifier struct {
	cache     *pipeline.StageCache
	store     store.Tier
	baselines *pipeline.BaselineRegistry
}

// NewVerifier builds a Verifier with the configured cache capacities and,
// when cfg.StoreDir is set, the persistent store tier.
func NewVerifier(cfg VerifierConfig) *Verifier {
	v := &Verifier{
		cache: pipeline.NewStageCache(pipeline.Capacities{
			Load:       cfg.LoadCache,
			SRC:        cfg.SRCCache,
			Routing:    cfg.RoutingCache,
			SPF:        cfg.SPFCache,
			Forwarding: cfg.ForwardingCache,
			Report:     cfg.ReportCache,
		}),
		baselines: pipeline.NewBaselineRegistry(),
	}
	if cfg.StoreDir != "" {
		if d, err := store.OpenDisk(cfg.StoreDir, cfg.StoreBudget); err == nil {
			v.store = d
		}
	}
	return v
}

// Store returns the persistent tier, or nil when none is attached (no
// StoreDir configured, or the directory could not be opened).
func (v *Verifier) Store() store.Tier { return v.store }

// SetStore attaches (or, with nil, detaches) a persistent tier; tests and
// embedders use it to supply a custom Tier implementation.
func (v *Verifier) SetStore(t store.Tier) { v.store = t }

// RunInfo describes how a VerifyText call was answered: the request
// digest, whether the whole report came from cache, and the per-stage
// provenance of whatever did run.
type RunInfo struct {
	// Digest is the report-cache key (see ReportDigest).
	Digest string `json:"digest"`
	// CacheHit is true when the report was served whole from the report
	// cache; Stages then holds the single report-stage entry.
	CacheHit bool `json:"cache_hit"`
	// Baseline is the registered baseline the run anchored on ("" for
	// anonymous verifications).
	Baseline string `json:"baseline,omitempty"`
	// Stages lists per-stage provenance in pipeline order.
	Stages []StageInfo `json:"stages"`
}

// BDDProfile is one live BDD manager's structural snapshot, named by the
// surface holding it: a registered baseline or the SRC stage cache.
type BDDProfile struct {
	// Origin is "baseline" (a registered, pinned converged state) or
	// "src-cache" (an anonymous cached SRC artifact).
	Origin string `json:"origin"`
	// Name is the baseline name, or the artifact digest for cache entries.
	Name    string      `json:"name"`
	Profile bdd.Profile `json:"profile"`
}

// BDDProfiles snapshots every live BDD manager the verifier holds —
// registered baselines first (name order), then anonymous SRC cache
// entries (recency order). Warm-started artifacts share their seed's
// manager, so shared managers are profiled once, under the first name
// encountered. Each snapshot takes that artifact's run lock, briefly
// serializing against verifications sharing the manager — this is the
// on-demand path behind GET /debug/bdd, not engine machinery.
func (v *Verifier) BDDProfiles() []BDDProfile {
	type target struct {
		origin, name string
		art          *pipeline.SRCArtifact
	}
	var targets []target
	seen := map[*bdd.Manager]bool{}
	for _, b := range v.baselines.List() {
		if b.SRC == nil || seen[b.SRC.Eng.Space.M] {
			continue
		}
		seen[b.SRC.Eng.Space.M] = true
		targets = append(targets, target{"baseline", b.Name, b.SRC})
	}
	// Collect first, profile after: Scan holds the cache lock, and
	// profiling takes artifact run locks whose holders may be about to
	// insert into the cache.
	v.cache.Scan(pipeline.StageSRC, func(val any) bool {
		a := val.(*pipeline.SRCArtifact)
		if !seen[a.Eng.Space.M] {
			seen[a.Eng.Space.M] = true
			targets = append(targets, target{"src-cache", a.Digest, a})
		}
		return false
	})
	out := make([]BDDProfile, 0, len(targets))
	for _, t := range targets {
		out = append(out, BDDProfile{Origin: t.origin, Name: t.name, Profile: t.art.BDDProfile()})
	}
	return out
}

// ReportDigest is the digest identifying a verification request — the
// canonicalized configuration text plus the normalized options — used as
// the report-cache key by Verifier and the service.
func ReportDigest(configText string, opts Options) string {
	return pipeline.ReportKey(configText, opts.CacheKey())
}

// VerifyText verifies a configuration text, reusing cached stage
// artifacts where the request's stage keys match earlier runs. The
// returned RunInfo records the provenance of every stage.
func (v *Verifier) VerifyText(ctx context.Context, configText string, opts Options) (*Report, *RunInfo, error) {
	return v.verifyText(ctx, "", configText, opts)
}

// verifyText is the shared driver behind VerifyText, VerifyTextFrom, and
// VerifyDelta: baseline names the registered warm anchor ("" for
// anonymous requests).
func (v *Verifier) verifyText(ctx context.Context, baseline, configText string, opts Options) (*Report, *RunInfo, error) {
	opts.normalize()
	if err := opts.validate(); err != nil {
		return nil, nil, err
	}
	info := &RunInfo{Digest: ReportDigest(configText, opts), Baseline: baseline}

	start := time.Now()
	if cached, ok := v.cache.Get(pipeline.StageReport, info.Digest); ok {
		info.CacheHit = true
		info.Stages = append(info.Stages, StageInfo{
			Stage: pipeline.StageReport, Status: StageHit,
			Key: info.Digest, Start: start, Duration: time.Since(start),
		})
		rep := cached.(*Report)
		if opts.Trace != nil {
			opts.Trace.SetMeta(info.Digest, opts.Mode.Key(), opts.CacheKey(), rep.Timing.Workers)
			traceStages(opts.Trace, info.Stages)
		}
		return rep, info, nil
	}

	load, loadInfo, err := v.load(configText)
	if err != nil {
		return nil, nil, err
	}
	info.Stages = append(info.Stages, loadInfo)

	runner := &pipeline.Runner{Cache: v.cache, Store: v.store, Baselines: v.baselines}
	req := opts.request(load)
	req.Baseline = baseline
	out, err := runner.Run(ctx, req)
	if err != nil {
		return nil, nil, err
	}
	info.Stages = append(info.Stages, out.Stages...)

	reportStart := time.Now()
	rep := assembleReport(load.Net.Statistics(), out)
	rep.Timing.Load = load.Elapsed
	v.cache.Add(pipeline.StageReport, info.Digest, rep)
	info.Stages = append(info.Stages, StageInfo{
		Stage: pipeline.StageReport, Status: StageMiss, Key: info.Digest, Start: reportStart,
	})
	if opts.Trace != nil {
		opts.Trace.SetMeta(info.Digest, opts.Mode.Key(), opts.CacheKey(), out.SRC.Workers)
		traceStages(opts.Trace, info.Stages)
		traceWatermark(opts.Trace, out.SRC)
	}
	return rep, info, nil
}

// load resolves the Load stage through its cache.
func (v *Verifier) load(configText string) (*pipeline.LoadArtifact, StageInfo, error) {
	start := time.Now()
	key := pipeline.ConfigDigest(configText)
	if cached, ok := v.cache.Get(pipeline.StageLoad, key); ok {
		return cached.(*pipeline.LoadArtifact), StageInfo{
			Stage: pipeline.StageLoad, Status: StageHit, Key: key, Start: start, Duration: time.Since(start),
		}, nil
	}
	art, err := pipeline.Load(configText)
	if err != nil {
		return nil, StageInfo{}, err
	}
	v.cache.Add(pipeline.StageLoad, key, art)
	return art, StageInfo{
		Stage: pipeline.StageLoad, Status: StageMiss, Key: key, Start: start, Duration: time.Since(start),
	}, nil
}

// CachedReport answers from the report cache alone (no stages run),
// counting a report-stage hit or miss. The service's submit path uses it
// to decide between answering immediately and enqueueing a job.
func (v *Verifier) CachedReport(digest string) (*Report, bool) {
	cached, ok := v.cache.Get(pipeline.StageReport, digest)
	if !ok {
		return nil, false
	}
	return cached.(*Report), true
}

// StoreReport inserts a finished report under its digest. VerifyText does
// this itself; the service also calls it when a substituted verification
// function produced the report.
func (v *Verifier) StoreReport(digest string, rep *Report) {
	v.cache.Add(pipeline.StageReport, digest, rep)
}

// CachedReports reports the number of reports currently cached.
func (v *Verifier) CachedReports() int {
	return v.cache.Len(pipeline.StageReport)
}

// CacheStats snapshots every stage's hit/miss/entry counters in pipeline
// order (the service exports them on /metrics).
func (v *Verifier) CacheStats() []StageCacheStat {
	return v.cache.Stats()
}

// StoreTraffic snapshots the persistent tier's counters; ok is false when
// no store is attached (the service omits the metric families then).
func (v *Verifier) StoreTraffic() (StoreStats, bool) {
	if v.store == nil {
		return StoreStats{}, false
	}
	return v.store.Stats(), true
}
