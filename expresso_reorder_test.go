package expresso

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/expresso-verify/expresso/internal/bdd"
	"github.com/expresso-verify/expresso/internal/netgen"
	"github.com/expresso-verify/expresso/internal/testnet"
)

// TestReorderDeterminismMatrix is the acceptance check of dynamic
// variable reordering: with a tiny EXPRESSO_REORDER budget forcing sift
// passes at every EPVP round boundary and before SPF, reports must stay
// byte-identical to a reorder-off sequential baseline across worker
// counts and reclamation schedules. This only holds because sifting runs
// at the same schedule-independent quiescent barriers as reclamation,
// picks its candidates from the canonical node set, and everything
// report-visible (fingerprints, witnesses, counts) is order-independent.
func TestReorderDeterminismMatrix(t *testing.T) {
	fixtures := []struct {
		name string
		cfg  string
		opts Options
	}{
		{"figure4", testnet.Figure4, Options{}},
		{"case1-blackhole", testnet.Case1Blackhole,
			Options{Properties: []Kind{RouteLeakFree, BlackHoleFree, LoopFree}}},
		{"region1-small", netgen.CSP(netgen.CSPOldRegion(1).WithPeers(3)),
			Options{Properties: []Kind{RouteLeakFree, RouteHijackFree, TrafficHijackFree}}},
	}
	for _, f := range fixtures {
		f := f
		t.Run(f.name, func(t *testing.T) {
			net, err := Load(f.cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Baseline: sequential, no reordering, no reclamation.
			t.Setenv("EXPRESSO_REORDER", "off")
			t.Setenv("EXPRESSO_RECLAIM", "off")
			seq := f.opts
			seq.Workers = 1
			repOff, err := net.Verify(seq)
			if err != nil {
				t.Fatal(err)
			}
			want := reportJSON(t, repOff)

			t.Setenv("EXPRESSO_REORDER", "200")
			before := bdd.GlobalReorderStats().Runs
			for _, reclaim := range []string{"off", "200"} {
				t.Setenv("EXPRESSO_RECLAIM", reclaim)
				for _, workers := range []int{1, 4} {
					opts := f.opts
					opts.Workers = workers
					rep, err := net.Verify(opts)
					if err != nil {
						t.Fatal(err)
					}
					if got := reportJSON(t, rep); string(got) != string(want) {
						t.Fatalf("workers=%d reclaim=%s with forced sifting differs from reorder-off baseline:\n--- off ---\n%s\n--- sift ---\n%s",
							workers, reclaim, want, got)
					}
				}
			}
			if after := bdd.GlobalReorderStats().Runs; after == before {
				t.Fatal("forced budget triggered no reorder passes; the matrix asserted nothing")
			}
		})
	}
}

// TestReorderDiskWarmByteIdentical closes the matrix's last axis: a
// process restart that serves every stage from the on-disk artifact
// store (XBDD v2 blobs exported from a reordered manager, re-imported
// and re-canonicalized under a fresh manager's order) must still produce
// the reorder-off baseline's bytes while sifting is forced on.
func TestReorderDiskWarmByteIdentical(t *testing.T) {
	cfg := netgen.CSP(netgen.CSPOldRegion(1).WithPeers(3))
	ctx := context.Background()
	opts := Options{Workers: 1, Properties: []Kind{RouteLeakFree, RouteHijackFree, TrafficHijackFree}}

	t.Setenv("EXPRESSO_REORDER", "off")
	t.Setenv("EXPRESSO_RECLAIM", "off")
	net, err := Load(cfg)
	if err != nil {
		t.Fatal(err)
	}
	repOff, err := net.Verify(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := reportJSON(t, repOff)

	t.Setenv("EXPRESSO_REORDER", "200")
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			wopts := opts
			wopts.Workers = workers
			dir := t.TempDir()
			cold := NewVerifier(VerifierConfig{StoreDir: dir})
			repCold, _, err := cold.VerifyText(ctx, cfg, wopts)
			if err != nil {
				t.Fatal(err)
			}
			if got := reportJSON(t, repCold); string(got) != string(want) {
				t.Fatalf("cold store run with forced sifting differs from baseline:\n--- off ---\n%s\n--- cold ---\n%s", want, got)
			}
			warm := NewVerifier(VerifierConfig{StoreDir: dir})
			repWarm, _, err := warm.VerifyText(ctx, cfg, wopts)
			if err != nil {
				t.Fatal(err)
			}
			if got := reportJSON(t, repWarm); string(got) != string(want) {
				t.Fatalf("disk-warm run with forced sifting differs from baseline:\n--- off ---\n%s\n--- warm ---\n%s", want, got)
			}
		})
	}
}

// TestReorderConcurrentBaselineDeltas sends deltas against one baseline
// from two goroutines with sifting, then sweeping, forced on. Every delta
// warm-starts in the baseline's shared manager, so a collection that runs
// while another delta builds nodes there frees or moves them under its
// feet. The deltas must finish before a deadline and report exactly what
// the same deltas report when run one after another.
func TestReorderConcurrentBaselineDeltas(t *testing.T) {
	for _, budgets := range []struct{ name, reorder, reclaim string }{
		{"sift", "200", "off"},
		{"sweep", "off", "200"},
	} {
		t.Run(budgets.name, func(t *testing.T) {
			t.Setenv("EXPRESSO_REORDER", budgets.reorder)
			t.Setenv("EXPRESSO_RECLAIM", budgets.reclaim)
			concurrentBaselineDeltas(t)
		})
	}
}

func concurrentBaselineDeltas(t *testing.T) {
	ctx := context.Background()
	opts := Options{Workers: 1}
	base := testnet.Figure4Fixed
	const clients, perClient = 2, 8
	delta := func(c, i int) string {
		return base + fmt.Sprintf("bgp network 203.0.%d.%d/32\n", 113+c, i)
	}
	register := func() *Verifier {
		v := NewVerifier(VerifierConfig{})
		if _, _, err := v.RegisterBaseline(ctx, "prod", base, opts); err != nil {
			t.Fatal(err)
		}
		return v
	}

	serial := register()
	want := map[string]string{}
	for c := 0; c < clients; c++ {
		for i := 0; i < perClient; i++ {
			rep, _, err := serial.VerifyTextFrom(ctx, "prod", delta(c, i), opts)
			if err != nil {
				t.Fatal(err)
			}
			want[delta(c, i)] = string(reportJSON(t, rep))
		}
	}

	v := register()
	got := make([][]*Report, clients)
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			for i := 0; i < perClient; i++ {
				rep, _, err := v.VerifyTextFrom(ctx, "prod", delta(c, i), opts)
				if err != nil {
					errs <- err
					return
				}
				got[c] = append(got[c], rep)
			}
			errs <- nil
		}(c)
	}
	deadline := time.After(3 * time.Minute)
	for c := 0; c < clients; c++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatal("concurrent deltas did not finish before the deadline")
		}
	}
	for c := 0; c < clients; c++ {
		for i, rep := range got[c] {
			if g, w := string(reportJSON(t, rep)), want[delta(c, i)]; g != w {
				t.Fatalf("client %d delta %d differs from the serial run:\n--- serial ---\n%s\n--- concurrent ---\n%s", c, i, w, g)
			}
		}
	}
}
