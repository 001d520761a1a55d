package pipeline

import (
	"sort"
	"sync"
	"time"

	"github.com/expresso-verify/expresso/internal/bdd"
	"github.com/expresso-verify/expresso/internal/config"
	"github.com/expresso-verify/expresso/internal/epvp"
	"github.com/expresso-verify/expresso/internal/properties"
	"github.com/expresso-verify/expresso/internal/spf"
	"github.com/expresso-verify/expresso/internal/topology"
)

// pinner is implemented by artifacts that root BDD handles against
// dead-node reclamation (bdd.Manager.Pin). The stage cache releases the
// pins when an artifact is evicted, letting later sweeps in that manager
// collect it; in-flight requests stay safe because every sweep point also
// passes its own working set as explicit roots.
type pinner interface{ unpinHandles() }

// LoadArtifact is the Load stage's output: the built network plus the
// content addresses the downstream stage keys chain on. Digest == ""
// marks a network built outside the text pipeline (expresso.Load /
// LoadDir callers hand the Runner a pre-built topology); such artifacts
// are never cached or warm-started against, since there is no text to
// diff.
type LoadArtifact struct {
	Net *topology.Network
	// Digest is the SHA-256 of the canonical configuration text.
	Digest string
	// DeviceDigests maps each router name to the digest of its canonical
	// config section ("" keys any preamble). Warm-starts diff two of
	// these maps to find the routers a delta touched.
	DeviceDigests map[string]string
	// Elapsed is the parse+build wall clock.
	Elapsed time.Duration
}

// Load runs the Load stage on configuration text.
func Load(text string) (*LoadArtifact, error) {
	start := time.Now()
	devices, err := config.ParseConfigs(text)
	if err != nil {
		return nil, err
	}
	topo, err := topology.Build(devices)
	if err != nil {
		return nil, err
	}
	canonical := CanonicalConfig(text)
	return &LoadArtifact{
		Net:           topo,
		Digest:        hashHex(canonical),
		DeviceDigests: DeviceDigests(canonical),
		Elapsed:       time.Since(start),
	}, nil
}

// FromNetwork wraps a pre-built topology as an uncacheable Load artifact.
func FromNetwork(net *topology.Network) *LoadArtifact {
	return &LoadArtifact{Net: net}
}

// SRCArtifact is the SRC stage's output: a converged EPVP fixed point
// together with the engine that owns its BDD handles. The engine is part
// of the artifact because symbolic routes are only meaningful inside the
// manager that built them — every downstream stage (analysis, SPF) and
// every warm-start chained off this artifact must run in Eng's node
// universe.
type SRCArtifact struct {
	// Key is the cache key the artifact was stored under; Digest is its
	// content address (the hash of Key), which downstream stage keys
	// chain on.
	Key    string
	Digest string
	Eng    *epvp.Engine
	Res    *epvp.Result
	// Load is the artifact the fixed point was computed from; warm-starts
	// diff its DeviceDigests against the new load's.
	Load *LoadArtifact
	// Workers is the resolved engine worker count that computed the fixed
	// point (reports surface it; results are identical for every value).
	Workers int

	// runLock serializes all symbolic computation touching Eng's BDD
	// manager: the manager's default worker is not safe for concurrent
	// use, and a cached artifact can be picked up by several requests at
	// once. Artifacts produced by warm-starting share the prior
	// artifact's manager, so they share its lock too. Collections run
	// under it as well, which is what makes them safe: every other
	// symbolic computation on the manager is excluded for the duration,
	// apart from a warm start's compile, which buildLock excludes.
	runLock *sync.Mutex
	// buildLock lets a warm start compile policies into Eng's manager
	// without runLock: the compile holds its read side, and everything
	// that frees, moves or adds variables on the manager holds its write
	// side (collections through Eng.Quiesce). Shared like runLock.
	buildLock *sync.RWMutex

	pins []bdd.Node
}

// handles returns every BDD handle the artifact must keep valid: the
// engine's cross-run roots (compiled transfers and the edge-transfer memo)
// plus the converged RIBs' prefix-environment sets.
func (a *SRCArtifact) handles() []bdd.Node {
	roots := a.Eng.Roots()
	for _, rs := range a.Res.Best {
		for _, r := range rs {
			roots = append(roots, r.U)
		}
	}
	for _, rs := range a.Res.ExternalRIB {
		for _, r := range rs {
			roots = append(roots, r.U)
		}
	}
	return roots
}

// pinHandles roots the artifact's handles against dead-node reclamation.
// Called once, when the artifact is built; warm runs chained onto this
// manager may sweep between rounds, and the sweep must not collect a
// cached fixed point another request can still hit.
func (a *SRCArtifact) pinHandles() {
	a.pins = a.handles()
	a.Eng.Space.M.Pin(a.pins...)
}

func (a *SRCArtifact) unpinHandles() {
	a.Eng.Space.M.Unpin(a.pins...)
	a.pins = nil
}

// ownLocks gives an artifact whose engine computed in a manager of its
// own fresh run and build locks, and binds the engine's collections to
// the build lock.
func (a *SRCArtifact) ownLocks() *SRCArtifact {
	a.runLock, a.buildLock = &sync.Mutex{}, &sync.RWMutex{}
	a.Eng.Quiesce = a.buildLock
	return a
}

// lock serializes engine-touching computation on the artifact's manager.
func (a *SRCArtifact) lock()   { a.runLock.Lock() }
func (a *SRCArtifact) unlock() { a.runLock.Unlock() }

// BDDProfile snapshots the artifact's BDD manager under the run lock and
// the build lock's write side, so the walk sees a quiescent node
// population even when the artifact is shared with in-flight
// verifications and warm compiles. This is the introspection path behind
// GET /debug/bdd; it runs only on demand, never inside the engine.
func (a *SRCArtifact) BDDProfile() bdd.Profile {
	a.lock()
	defer a.unlock()
	a.buildLock.Lock()
	defer a.buildLock.Unlock()
	return a.Eng.Space.M.Profile()
}

// AnalysisArtifact is the output of the RoutingAnalysis and
// ForwardingAnalysis stages: the violations of the stage's property
// subset, in canonical in-stage order. Callers must not mutate the slice
// (report assembly copies).
type AnalysisArtifact struct {
	Key        string
	Violations []properties.Violation

	m    *bdd.Manager
	pins []bdd.Node
}

// handles returns the violations' condition predicates — the only BDD
// state an analysis artifact carries.
func (a *AnalysisArtifact) handles() []bdd.Node {
	out := make([]bdd.Node, 0, len(a.Violations))
	for _, v := range a.Violations {
		out = append(out, v.Cond)
	}
	return out
}

// pinHandles roots the violation conditions in the manager that built
// them, so a cached analysis artifact's Cond handles stay valid across
// reclaim sweeps by later runs in the same manager.
func (a *AnalysisArtifact) pinHandles(m *bdd.Manager) {
	a.m = m
	a.pins = a.handles()
	m.Pin(a.pins...)
}

func (a *AnalysisArtifact) unpinHandles() {
	a.m.Unpin(a.pins...)
	a.pins = nil
}

// SPFArtifact is the SPF stage's output: symbolic FIBs and PECs, valid in
// the upstream SRC artifact's manager.
type SPFArtifact struct {
	Key    string
	Digest string
	Res    *spf.Result

	m    *bdd.Manager
	pins []bdd.Node
}

// pinHandles roots the FIB and PEC predicates (spf.Result.Nodes) in the
// SRC manager the SPF stage ran in.
func (a *SPFArtifact) pinHandles(m *bdd.Manager) {
	a.m = m
	a.pins = a.Res.Nodes()
	m.Pin(a.pins...)
}

func (a *SPFArtifact) unpinHandles() {
	a.m.Unpin(a.pins...)
	a.pins = nil
}

// DirtyRouters computes the warm-start dirty set between two loads of the
// same external universe: every router whose canonical config section
// changed (or appeared, or disappeared), every neighbor — in the old AND
// new topologies — of such a router, and every neighbor of an external
// whose AS changed. The old-topology neighbors matter because change
// propagation in the new engine cannot see deltas the new topology no
// longer contains (a removed session or router): the routers that used to
// consume the removed state must be recomputed explicitly. A preamble
// change ("" section) dirties every router.
func DirtyRouters(old, new *LoadArtifact) []string {
	changed := map[string]bool{}
	for name, d := range new.DeviceDigests {
		if od, ok := old.DeviceDigests[name]; !ok || od != d {
			changed[name] = true
		}
	}
	for name := range old.DeviceDigests {
		if _, ok := new.DeviceDigests[name]; !ok {
			changed[name] = true
		}
	}
	if changed[""] {
		// Preamble text changed: no per-router attribution, dirty them all.
		out := append([]string(nil), new.Net.Internals...)
		return out
	}
	dirty := map[string]bool{}
	addWithNeighbors := func(name string) {
		dirty[name] = true
		for _, v := range old.Net.Neighbors(name) {
			dirty[v] = true
		}
		for _, v := range new.Net.Neighbors(name) {
			dirty[v] = true
		}
	}
	for name := range changed {
		addWithNeighbors(name)
	}
	// An external's AS participates in every route it originates; if it
	// changed without its neighbor routers' sections changing, those
	// routers must still recompute.
	for _, ext := range new.Net.Externals {
		if oldAS, ok := old.Net.ExternalAS[ext]; ok && oldAS != new.Net.ExternalAS[ext] {
			addWithNeighbors(ext)
		}
	}
	out := make([]string, 0, len(dirty))
	for name := range dirty {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// UnchangedRouters returns the routers whose canonical config sections are
// byte-identical between two loads — the set whose compiled policy
// transfers a warm engine may adopt from the prior engine instead of
// recompiling (epvp.NewWarm). A preamble change disqualifies everything:
// preamble text has no per-router attribution, so no section can be
// trusted to mean the same thing.
func UnchangedRouters(old, new *LoadArtifact) map[string]bool {
	if old.DeviceDigests[""] != new.DeviceDigests[""] {
		return nil
	}
	unchanged := map[string]bool{}
	for name, d := range new.DeviceDigests {
		if name == "" {
			continue
		}
		if od, ok := old.DeviceDigests[name]; ok && od == d {
			unchanged[name] = true
		}
	}
	return unchanged
}
