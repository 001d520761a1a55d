package expresso_test

// Benchmarks regenerating the paper's evaluation, one per table and figure.
// Each delegates to internal/bench in quick mode so `go test -bench=.`
// exercises every experiment in bounded time; the full-scale runs are
// driven by cmd/expresso-bench (see EXPERIMENTS.md for recorded results).
//
//	BenchmarkTable1DatasetStats      — Table 1
//	BenchmarkTable2Violations        — Table 2
//	BenchmarkFig6aRuntimeVsNeighbors — Figures 6a and 8a
//	BenchmarkFig6bRuntimeVsSize      — Figures 6b and 8b
//	BenchmarkFig6cFeatures           — Figures 6c and 8c
//	BenchmarkFig7Encodings           — Figures 7a and 7b
//	BenchmarkTable3Stages            — Table 3
//	BenchmarkTable4Internet2         — Table 4
//	BenchmarkEnumerationBaseline     — the §7 Batfish-enumeration remark
//
// Figure 5's case studies are exercised by the runnable examples and the
// integration tests (testnet fixtures).

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/expresso-verify/expresso"
	"github.com/expresso-verify/expresso/internal/bench"
	"github.com/expresso-verify/expresso/internal/netgen"
)

func quickCfg() bench.Config {
	return bench.Config{Quick: true, MSBudget: 5 * time.Second}
}

func BenchmarkTable1DatasetStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Table1(io.Discard, quickCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2Violations(b *testing.B) {
	// Quick mode still verifies the full old snapshot; run once per op.
	for i := 0; i < b.N; i++ {
		if err := bench.Table2(io.Discard, quickCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6aRuntimeVsNeighbors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Fig6a(io.Discard, quickCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6bRuntimeVsSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Fig6b(io.Discard, quickCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6cFeatures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Fig6c(io.Discard, quickCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7Encodings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Fig7(io.Discard, quickCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3Stages(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Table3(io.Discard, quickCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4Internet2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Table4(io.Discard, quickCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnumerationBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Enumeration(io.Discard, quickCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifyRegion1 measures the end-to-end pipeline on one region —
// the unit of Figure 6b's smallest point.
func BenchmarkVerifyRegion1(b *testing.B) {
	text := netgen.CSP(netgen.CSPOldRegion(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, err := expresso.Load(text)
		if err != nil {
			b.Fatal(err)
		}
		opts := expresso.Options{Properties: []expresso.Kind{expresso.RouteLeakFree}}
		if _, err := net.Verify(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifyRegion1Traced is BenchmarkVerifyRegion1 with a run-scoped
// tracer attached, pricing the enabled tracing path (per-round EPVP
// snapshots, SPF events) against the nil-tracer baseline.
func BenchmarkVerifyRegion1Traced(b *testing.B) {
	text := netgen.CSP(netgen.CSPOldRegion(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, err := expresso.Load(text)
		if err != nil {
			b.Fatal(err)
		}
		opts := expresso.Options{
			Properties: []expresso.Kind{expresso.RouteLeakFree},
			Trace:      expresso.NewTracer(),
		}
		if _, err := net.Verify(opts); err != nil {
			b.Fatal(err)
		}
		if tr := opts.Trace.Finish(); len(tr.EPVPRounds) == 0 {
			b.Fatal("traced run recorded no EPVP rounds")
		}
	}
}

// BenchmarkVerifyRegion1Parallel measures the same pipeline (all three §7.1
// properties, so the SPF stage is included) across engine worker counts.
// Speedups require real cores: on a single-CPU machine the parallel
// variants mostly measure the coordination overhead.
func BenchmarkVerifyRegion1Parallel(b *testing.B) {
	text := netgen.CSP(netgen.CSPOldRegion(1))
	for _, workers := range workerSweep() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				net, err := expresso.Load(text)
				if err != nil {
					b.Fatal(err)
				}
				opts := expresso.Options{Workers: workers}
				if _, err := net.Verify(opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVerifyRegion1WarmDelta measures incremental re-verification:
// the staged verifier is primed with the region-1 snapshot, then every
// iteration verifies a one-router delta (the tail router originates one
// more prefix), warm-starting EPVP from the cached converged fixed point
// and recomputing only the dirty closure. BenchmarkVerifyRegion1 is the
// cold baseline. The report cache is disabled so iterations measure the
// load + warm-SRC + analysis path rather than a digest lookup.
func BenchmarkVerifyRegion1WarmDelta(b *testing.B) {
	base := netgen.CSP(netgen.CSPOldRegion(1))
	opts := expresso.Options{Properties: []expresso.Kind{expresso.RouteLeakFree}}
	v := expresso.NewVerifier(expresso.VerifierConfig{ReportCache: -1})
	ctx := context.Background()
	if _, _, err := v.VerifyText(ctx, base, opts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		delta := base + fmt.Sprintf("bgp network 203.0.113.%d/32\n", i%256)
		rep, info, err := v.VerifyText(ctx, delta, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Converged {
			b.Fatal("warm-started run did not converge")
		}
		for _, st := range info.Stages {
			if st.Stage == "src" && st.Status == expresso.StageMiss {
				b.Fatalf("SRC ran cold on iteration %d (stages %+v)", i, info.Stages)
			}
		}
	}
}

// BenchmarkVerifyRegion1WarmLocal is the warm path's best case: the delta
// edits only the tail router's section without changing any routing
// outcome (it repeats the idempotent `bgp redistribute connected` line, a
// distinct count per iteration so every digest is fresh). The dirty
// closure stays at the tail router plus its neighbors and the fixed point
// re-converges immediately, so this measures the incremental floor —
// load + dirty-set computation + a local EPVP recheck — against the full
// repropagation that BenchmarkVerifyRegion1WarmDelta's new prefix forces.
func BenchmarkVerifyRegion1WarmLocal(b *testing.B) {
	base := netgen.CSP(netgen.CSPOldRegion(1))
	opts := expresso.Options{Properties: []expresso.Kind{expresso.RouteLeakFree}}
	v := expresso.NewVerifier(expresso.VerifierConfig{ReportCache: -1})
	ctx := context.Background()
	if _, _, err := v.VerifyText(ctx, base, opts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		delta := base + strings.Repeat("bgp redistribute connected\n", i+1)
		rep, info, err := v.VerifyText(ctx, delta, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Converged {
			b.Fatal("warm-started run did not converge")
		}
		for _, st := range info.Stages {
			if st.Stage == "src" && st.Status == expresso.StageMiss {
				b.Fatalf("SRC ran cold on iteration %d (stages %+v)", i, info.Stages)
			}
		}
	}
}

// workerSweep returns 1, 2, 4, and NumCPU (deduplicated, ascending).
func workerSweep() []int {
	sweep := []int{1, 2, 4}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 {
		sweep = append(sweep, n)
	}
	return sweep
}

// storeBenchOpts selects one property per analysis stage so the store
// benchmarks below exercise every persisted artifact: the SRC fixed
// point, both analysis violation sets, and the SPF forwarding result.
func storeBenchOpts() expresso.Options {
	return expresso.Options{Properties: []expresso.Kind{
		expresso.RouteLeakFree, expresso.RouteHijackFree, expresso.TrafficHijackFree,
	}}
}

// BenchmarkStoreRegion1Cold is the scratch baseline for the artifact
// store: every iteration is a fresh Verifier with no store attached, so
// it pays the full Load + SRC + analyses + SPF pipeline.
func BenchmarkStoreRegion1Cold(b *testing.B) {
	text := netgen.CSP(netgen.CSPOldRegion(1))
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := expresso.NewVerifier(expresso.VerifierConfig{})
		if _, _, err := v.VerifyText(ctx, text, storeBenchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreRegion1DiskWarm measures a cold process warm-starting
// from a populated store directory: every iteration is a fresh Verifier
// (empty stage caches) whose SRC, analysis, and SPF artifacts all
// deserialize from disk; only config parsing, policy compilation, and
// blob decoding remain. BenchmarkStoreRegion1Cold is its cold baseline.
func BenchmarkStoreRegion1DiskWarm(b *testing.B) {
	text := netgen.CSP(netgen.CSPOldRegion(1))
	ctx := context.Background()
	dir := b.TempDir()
	if _, _, err := expresso.NewVerifier(expresso.VerifierConfig{StoreDir: dir}).VerifyText(ctx, text, storeBenchOpts()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := expresso.NewVerifier(expresso.VerifierConfig{StoreDir: dir})
		_, info, err := v.VerifyText(ctx, text, storeBenchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, st := range info.Stages {
			if st.Stage == "src" && st.Status != expresso.StageDisk {
				b.Fatalf("SRC not served from disk on iteration %d (stages %+v)", i, info.Stages)
			}
		}
	}
}

// BenchmarkStoreRegion1MemWarm is the in-memory ceiling the disk tier is
// measured against: one primed Verifier resubmitting the same request
// with the report cache disabled, so every stage is an in-memory cache
// hit and only keying and provenance assembly run.
func BenchmarkStoreRegion1MemWarm(b *testing.B) {
	text := netgen.CSP(netgen.CSPOldRegion(1))
	ctx := context.Background()
	v := expresso.NewVerifier(expresso.VerifierConfig{ReportCache: -1})
	if _, _, err := v.VerifyText(ctx, text, storeBenchOpts()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, info, err := v.VerifyText(ctx, text, storeBenchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, st := range info.Stages {
			if st.Stage == "src" && st.Status != expresso.StageHit {
				b.Fatalf("SRC not served from memory on iteration %d (stages %+v)", i, info.Stages)
			}
		}
	}
}
