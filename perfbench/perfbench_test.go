package main

import (
	"bytes"
	"context"
	"os"
	"reflect"
	"testing"
	"time"

	"github.com/expresso-verify/expresso/internal/netgen"
)

// tinyFixture is a network small enough that a cold verification, SPF
// included, takes a fraction of a second.
func tinyFixture() string {
	return netgen.CSP(netgen.CSPSpec{Name: "t", Seed: 7, Backbones: 2, PeeringRouters: 4,
		Peers: 4, Prefixes: 40, CustomerPrefixLines: 400, HijackBugs: 1, TrafficBugs: 1})
}

// tracedPair replays the fixture n times through the layer wrappers,
// recording every span twice: once as measured, once with inject
// lengthening the named layers. Both results come from the same replays,
// so only the injected delay tells them apart.
func tracedPair(t *testing.T, n int, inject map[string]time.Duration) (base, slow *Result) {
	t.Helper()
	text := tinyFixture()
	rec := newRecorder()
	rec.tee = &Recorder{epoch: rec.epoch, inject: inject}
	counters := map[string][]float64{}
	for i := 1; i <= n; i++ {
		rp, err := replayCold(context.Background(), rec, i, text, propsAll, 1)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range rp.counters {
			counters[k] = append(counters[k], v)
		}
	}
	var out [2]*Result
	for j, r := range []*Recorder{rec, rec.tee} {
		out[j] = &Result{Workload: wlRegion1, Trace: true, Metrics: map[string]Metric{}}
		out[j].perLayer(coldLayers(r.finish(), counters, nil))
	}
	return out[0], out[1]
}

// TestCompareFlagsInjectedLayer injects a delay into the spf wrapper and
// checks that the per-layer comparison flags spf and nothing else. The
// delay is virtual, as in TestTraceDiffGolden's inflated span, so the
// attribution is deterministic on a noisy machine.
func TestCompareFlagsInjectedLayer(t *testing.T) {
	// Virtual, so it costs nothing: large enough to clear the 25% rule
	// however slow SPF runs (the race detector slows it tenfold).
	base, slow := tracedPair(t, 3, map[string]time.Duration{spanSPF: 10 * time.Second})
	if base.Metrics["spf.ms"].Value <= 0 {
		t.Fatal("fixture runs no SPF work")
	}
	if got := regressedLayers(compareResults(base, base)); len(got) != 0 {
		t.Fatalf("a result compared with itself flags %v", got)
	}
	if got := regressedLayers(compareResults(base, slow)); !reflect.DeepEqual(got, []string{spanSPF}) {
		t.Fatalf("injected spf delay flags %v, want [spf]", got)
	}
	if got := regressedLayers(compareResults(slow, base)); len(got) != 0 {
		t.Fatalf("removing the delay flags %v", got)
	}
}

// TestSelfTime checks that a parent's self time excludes its children,
// counting overlapping children once.
func TestSelfTime(t *testing.T) {
	rec := newRecorder()
	at := func(ms int) time.Time { return rec.epoch.Add(time.Duration(ms) * time.Millisecond) }
	root := rec.add("root", 0, 1, at(0), at(100))
	rec.add("a", root, 1, at(10), at(40))
	rec.add("b", root, 1, at(30), at(60)) // overlaps a
	rec.add("c", root, 1, at(90), at(120))
	got := selfByName(rec.finish())
	if want := 100.0 - 50 - 10; got["root"][0] != want {
		t.Fatalf("root self time %v, want %v", got["root"][0], want)
	}
	if got["a"][0] != 30 {
		t.Fatalf("leaf self time %v, want 30", got["a"][0])
	}
}

// TestManifestMatchesBenchmarkJSON keeps the checked-in BENCHMARK.json in
// step with the workload and metric tables; regenerate it with
// `bash perfbench/run.sh -manifest BENCHMARK.json`.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json is stale: regenerate it with -manifest")
	}
}

// TestTailLevel pins the tail definition: the percentile and the count of
// samples beyond it.
func TestTailLevel(t *testing.T) {
	xs := make([]float64, 60)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, beyond := tail(xs, 0.75)
	if beyond != 15 || v != quantile(xs, 0.75) {
		t.Fatalf("tail(60 samples, p75) = %v, %d beyond", v, beyond)
	}
}
