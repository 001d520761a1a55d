package spf

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/expresso-verify/expresso/internal/bdd"
	"github.com/expresso-verify/expresso/internal/epvp"
	"github.com/expresso-verify/expresso/internal/netgen"
	"github.com/expresso-verify/expresso/internal/route"
	"github.com/expresso-verify/expresso/internal/testnet"
)

// referenceFIB is the highest-priority-first formulation of compileFIB:
// each priority group keeps what no higher group already covers. It is
// the specification compileFIB's lowest-priority-first fold must match
// handle for handle.
func referenceFIB(w *bdd.Worker, entries []fibEntry) *FIB {
	sort.SliceStable(entries, func(i, j int) bool {
		if entries[i].length != entries[j].length {
			return entries[i].length > entries[j].length
		}
		return entries[i].admin < entries[j].admin
	})
	fib := &FIB{PortPred: map[string]bdd.Node{}, Arrive: bdd.False, Entries: len(entries)}
	covered := bdd.False
	for i := 0; i < len(entries); {
		j := i
		for j < len(entries) && entries[j].length == entries[i].length && entries[j].admin == entries[i].admin {
			j++
		}
		perPort := map[string]bdd.Node{}
		var order []string
		for _, e := range entries[i:j] {
			if _, ok := perPort[e.port]; !ok {
				order = append(order, e.port)
			}
			perPort[e.port] = w.Or(perPort[e.port], e.match)
		}
		groupUnion := bdd.False
		for _, port := range order {
			match := perPort[port]
			groupUnion = w.Or(groupUnion, match)
			eff := w.Diff(match, covered)
			if eff == bdd.False {
				continue
			}
			if port == "" {
				fib.Arrive = w.Or(fib.Arrive, eff)
			} else {
				fib.PortPred[port] = w.Or(fib.PortPred[port], eff)
			}
		}
		covered = w.Or(covered, groupUnion)
		i = j
	}
	fib.BlackHole = w.Not(covered)
	return fib
}

// sameFIB reports every way a FIB differs from the reference's.
func sameFIB(t *testing.T, what string, got, want *FIB) {
	t.Helper()
	if got.Arrive != want.Arrive {
		t.Errorf("%s: Arrive = node %d, reference %d", what, got.Arrive, want.Arrive)
	}
	if got.BlackHole != want.BlackHole {
		t.Errorf("%s: BlackHole = node %d, reference %d", what, got.BlackHole, want.BlackHole)
	}
	if got.Entries != want.Entries {
		t.Errorf("%s: Entries = %d, reference %d", what, got.Entries, want.Entries)
	}
	if len(got.PortPred) != len(want.PortPred) {
		t.Errorf("%s: %d ports, reference %d", what, len(got.PortPred), len(want.PortPred))
	}
	for port, p := range want.PortPred {
		if g, ok := got.PortPred[port]; !ok || g != p {
			t.Errorf("%s: PortPred[%s] = node %d (present %v), reference %d", what, port, g, ok, p)
		}
	}
}

// checkAgainstReference compiles every router's entries both ways and
// compares them with each other and with the FIB the run produced.
func checkAgainstReference(t *testing.T, eng *epvp.Engine, cp *epvp.Result, dp *Result) {
	t.Helper()
	w := eng.Space.W
	for _, v := range eng.Net.Internals {
		entries := dp.fibEntries(eng.Space, v, cp.Best[v])
		want := referenceFIB(w, append([]fibEntry(nil), entries...))
		sameFIB(t, v+" compileFIB", compileFIB(w, append([]fibEntry(nil), entries...)), want)
		sameFIB(t, v+" run", dp.FIBs[v], want)
	}
}

// TestCompileFIBMatchesReference checks the lowest-priority-first fold
// against the highest-priority-first reference: identical handles for
// every port predicate, the arrival predicate and the black hole, on the
// paper's network, on region 1, and on random entry sets.
func TestCompileFIBMatchesReference(t *testing.T) {
	t.Run("testnet", func(t *testing.T) {
		eng, cp, dp := runPipeline(t, testnet.Figure4)
		checkAgainstReference(t, eng, cp, dp)
	})
	t.Run("region1", func(t *testing.T) {
		eng, cp, dp := runPipeline(t, netgen.CSP(netgen.CSPOldRegion(1)))
		checkAgainstReference(t, eng, cp, dp)
	})
	t.Run("random", func(t *testing.T) {
		for seed := int64(1); seed <= 200; seed++ {
			m, entries := randomEntries(seed)
			w := m.NewWorker()
			want := referenceFIB(w, append([]fibEntry(nil), entries...))
			sameFIB(t, fmt.Sprintf("seed %d", seed), compileFIB(w, append([]fibEntry(nil), entries...)), want)
			if t.Failed() {
				return
			}
		}
	})
}

// randomEntries draws a random forwarding table over 32 destination bits
// and a data-plane block for three neighbors laid out like dataVar's. It
// mixes nested prefixes (so longer ones shadow shorter ones), /0 and /32,
// BGP entries guarded by advertiser conditions, static and connected
// entries at the same length as BGP ones (admin-distance ties), several
// ports in one group (ECMP) and local delivery (port "").
func randomEntries(seed int64) (*bdd.Manager, []fibEntry) {
	const nbrs = 3
	m := bdd.New(32 + 33*nbrs)
	rng := rand.New(rand.NewSource(seed))
	dataVar := func(i, l int) int { return 32 + (32-l)*nbrs + i }
	bases := []uint32{0x0A000000, 0x0A010000, 0x0A010200, 0x0A010203, 0xC0A80000}
	lengths := []int{0, 8, 16, 24, 32}
	ports := []string{"", "A", "B", "C"}
	admins := []int{
		route.ProtoConnected.AdminDistance(),
		route.ProtoStatic.AdminDistance(),
		route.ProtoBGP.AdminDistance(),
	}
	// draw is one entry's match at length l: a prefix from the pool,
	// guarded for BGP by an advertiser condition over length l.
	draw := func(l, admin int) bdd.Node {
		addr := bases[rng.Intn(len(bases))]
		vars := make([]int, l)
		vals := make([]bool, l)
		for b := range vars {
			vars[b] = b
			vals[b] = addr&(1<<(31-b)) != 0
		}
		match := m.Cube(vars, vals)
		if admin != route.ProtoBGP.AdminDistance() {
			return match
		}
		cond := m.Var(dataVar(rng.Intn(nbrs), l))
		for i := 0; i < nbrs; i++ {
			switch rng.Intn(3) {
			case 0:
				cond = m.Or(cond, m.Var(dataVar(i, l)))
			case 1:
				cond = m.Or(cond, m.And(m.Var(dataVar(i, l)), m.NVar(dataVar((i+1)%nbrs, l))))
			}
		}
		return m.And(match, cond)
	}
	n := 1 + rng.Intn(14)
	var entries []fibEntry
	for k := 0; k < n; k++ {
		l := lengths[rng.Intn(len(lengths))]
		admin := admins[rng.Intn(len(admins))]
		entries = append(entries, fibEntry{length: l, admin: admin, match: draw(l, admin), port: ports[rng.Intn(len(ports))]})
		if rng.Intn(3) == 0 {
			// An ECMP twin: same priority, another draw, any port.
			entries = append(entries, fibEntry{length: l, admin: admin, match: draw(l, admin), port: ports[rng.Intn(len(ports))]})
		}
	}
	return m, entries
}

// TestRegion1SPFNodeBudget guards the FIB layout: SPF on region 1, on one
// worker, must hash-cons fewer than spfNodeBudget fresh nodes. It creates
// about 292k. With the /0 variables on top, or the FIB folded highest
// priority first, port predicates carry the best port so far down through
// all 33 length layers: 471k with both the old way, 1.01M or 1.46M with
// only one of them changed.
func TestRegion1SPFNodeBudget(t *testing.T) {
	const spfNodeBudget = 350_000
	eng, cp := converge(t, netgen.CSP(netgen.CSPOldRegion(1)))
	eng.Workers = 1
	_, before := eng.Space.M.UniqueStats()
	Run(eng, cp)
	_, after := eng.Space.M.UniqueStats()
	created := after - before
	t.Logf("region-1 SPF created %d nodes (budget %d)", created, spfNodeBudget)
	if created >= spfNodeBudget {
		t.Errorf("region-1 SPF created %d nodes, budget %d", created, spfNodeBudget)
	}
}
