package expresso_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"github.com/expresso-verify/expresso"
	"github.com/expresso-verify/expresso/internal/netgen"
	"github.com/expresso-verify/expresso/internal/telemetry"
	"github.com/expresso-verify/expresso/internal/testnet"
)

// TestVerifyTextTraceSpansSequential checks that stage spans carry their
// real start times: the stages of one verification run one after another,
// so their spans must appear in pipeline order, each ending no later than
// the next one starts. Child spans lie inside their stage and are checked
// by TestVerifyTextTraceSRCChildSpans.
func TestVerifyTextTraceSpansSequential(t *testing.T) {
	tracer := expresso.NewTracer()
	opts := expresso.Options{
		Properties: []expresso.Kind{expresso.RouteLeakFree, expresso.TrafficHijackFree},
		Trace:      tracer,
	}
	v := expresso.NewVerifier(expresso.VerifierConfig{})
	if _, _, err := v.VerifyText(context.Background(), testnet.Figure4, opts); err != nil {
		t.Fatal(err)
	}
	var spans []telemetry.Span
	var names []string
	for _, sp := range tracer.Finish().Spans {
		if telemetry.SpanParent(sp.Name) == "" {
			spans = append(spans, sp)
			names = append(names, sp.Name)
		}
	}
	want := []string{"load", "src", "routing_analysis", "spf", "forwarding_analysis", "report"}
	if len(names) != len(want) {
		t.Fatalf("spans = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("spans = %v, want %v", names, want)
		}
	}
	for i := 1; i < len(spans); i++ {
		prev, cur := spans[i-1], spans[i]
		if end := prev.StartNS + prev.Duration; end > cur.StartNS {
			t.Errorf("span %s [%d, %d) overlaps the next span %s starting at %d",
				prev.Name, prev.StartNS, end, cur.Name, cur.StartNS)
		}
	}
}

// TestVerifyTextTraceSRCChildSpans checks the cold SRC stage's child
// spans: the policy compilation and the EPVP rounds each appear once,
// right after the src span, inside its interval, one after the other,
// together no longer than it.
func TestVerifyTextTraceSRCChildSpans(t *testing.T) {
	tracer := expresso.NewTracer()
	opts := expresso.Options{Properties: []expresso.Kind{expresso.RouteLeakFree}, Trace: tracer}
	v := expresso.NewVerifier(expresso.VerifierConfig{})
	if _, _, err := v.VerifyText(context.Background(), netgen.CSP(netgen.CSPOldRegion(1)), opts); err != nil {
		t.Fatal(err)
	}
	spans := tracer.Finish().Spans
	at := -1
	for i, sp := range spans {
		if sp.Name == "src" {
			at = i
		}
	}
	if at < 0 || at+2 >= len(spans) {
		t.Fatalf("no src span followed by two children in %+v", spans)
	}
	src, compile, rounds := spans[at], spans[at+1], spans[at+2]
	if compile.Name != "src.compile" || rounds.Name != "src.rounds" {
		t.Fatalf("src is followed by %q and %q, want src.compile and src.rounds", compile.Name, rounds.Name)
	}
	end := func(sp telemetry.Span) int64 { return sp.StartNS + sp.Duration }
	for _, c := range []telemetry.Span{compile, rounds} {
		if c.StartNS < src.StartNS || end(c) > end(src) {
			t.Errorf("%s [%d, %d) lies outside src [%d, %d)", c.Name, c.StartNS, end(c), src.StartNS, end(src))
		}
		if telemetry.SpanParent(c.Name) != "src" {
			t.Errorf("SpanParent(%q) = %q, want src", c.Name, telemetry.SpanParent(c.Name))
		}
	}
	if end(compile) > rounds.StartNS {
		t.Errorf("src.compile ends at %d, after src.rounds starts at %d", end(compile), rounds.StartNS)
	}
	if sum := compile.Duration + rounds.Duration; sum > src.Duration {
		t.Errorf("children take %d ns, longer than src's %d ns", sum, src.Duration)
	}
	t.Logf("src %.1f ms: compile %.1f ms, rounds %.1f ms",
		float64(src.Duration)/1e6, float64(compile.Duration)/1e6, float64(rounds.Duration)/1e6)
}

// TestVerifyTextTraceSPFChildSpans checks the SPF stage's child spans on
// region 1: the FIB build, the packet traversals and the PEC coalescing
// each appear once, right after the spf span, inside its interval, one
// after the other, and together they account for at least 90% of it.
func TestVerifyTextTraceSPFChildSpans(t *testing.T) {
	tracer := expresso.NewTracer()
	opts := expresso.Options{Properties: []expresso.Kind{expresso.BlackHoleFree}, Trace: tracer}
	v := expresso.NewVerifier(expresso.VerifierConfig{})
	if _, _, err := v.VerifyText(context.Background(), netgen.CSP(netgen.CSPOldRegion(1)), opts); err != nil {
		t.Fatal(err)
	}
	spans := tracer.Finish().Spans
	at := -1
	for i, sp := range spans {
		if sp.Name == "spf" {
			at = i
		}
	}
	want := []string{"spf.fib", "spf.forward", "spf.coalesce"}
	if at < 0 || at+len(want) >= len(spans) {
		t.Fatalf("no spf span followed by %d children in %+v", len(want), spans)
	}
	stage, children := spans[at], spans[at+1:at+1+len(want)]
	end := func(sp telemetry.Span) int64 { return sp.StartNS + sp.Duration }
	var sum int64
	for i, c := range children {
		if c.Name != want[i] {
			t.Fatalf("child %d of spf is %q, want %q", i, c.Name, want[i])
		}
		if telemetry.SpanParent(c.Name) != "spf" {
			t.Errorf("SpanParent(%q) = %q, want spf", c.Name, telemetry.SpanParent(c.Name))
		}
		if c.StartNS < stage.StartNS || end(c) > end(stage) {
			t.Errorf("%s [%d, %d) lies outside spf [%d, %d)", c.Name, c.StartNS, end(c), stage.StartNS, end(stage))
		}
		if i > 0 && end(children[i-1]) > c.StartNS {
			t.Errorf("%s ends at %d, after %s starts at %d", children[i-1].Name, end(children[i-1]), c.Name, c.StartNS)
		}
		sum += c.Duration
	}
	if sum*10 < stage.Duration*9 {
		t.Errorf("children cover %d of spf's %d ns, under 90%%", sum, stage.Duration)
	}
	t.Logf("spf %.1f ms: fib %.1f ms, forward %.1f ms, coalesce %.1f ms", float64(stage.Duration)/1e6,
		float64(children[0].Duration)/1e6, float64(children[1].Duration)/1e6, float64(children[2].Duration)/1e6)
}

// TestVerifyTextTrace runs the staged verifier with a tracer attached and
// checks the trace covers the whole run: one span per pipeline stage,
// exactly one round event per EPVP iteration, per-router SPF events, and
// a schema-stamped JSON document that round-trips.
func TestVerifyTextTrace(t *testing.T) {
	tracer := expresso.NewTracer()
	opts := expresso.Options{
		Properties: []expresso.Kind{
			expresso.RouteLeakFree, expresso.RouteHijackFree, expresso.TrafficHijackFree,
		},
		Trace: tracer,
	}
	v := expresso.NewVerifier(expresso.VerifierConfig{})
	rep, info, err := v.VerifyText(context.Background(), testnet.Figure4, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatal("EPVP did not converge")
	}

	trace := tracer.Finish()
	if trace.Schema != telemetry.SchemaVersion {
		t.Errorf("trace schema = %q, want %q", trace.Schema, telemetry.SchemaVersion)
	}
	if trace.Digest != info.Digest {
		t.Errorf("trace digest = %q, want the run digest %q", trace.Digest, info.Digest)
	}
	if trace.Workers != rep.Timing.Workers {
		t.Errorf("trace workers = %d, want %d", trace.Workers, rep.Timing.Workers)
	}

	spansByName := map[string]int{}
	for _, sp := range trace.Spans {
		spansByName[sp.Name]++
	}
	for _, stage := range []string{"load", "src", "routing_analysis", "spf", "forwarding_analysis", "report"} {
		if spansByName[stage] < 1 {
			t.Errorf("no span for stage %q (spans %v)", stage, spansByName)
		}
	}

	if len(trace.EPVPRounds) != rep.Iterations {
		t.Errorf("trace has %d EPVP rounds, report says %d iterations",
			len(trace.EPVPRounds), rep.Iterations)
	}
	for i, r := range trace.EPVPRounds {
		if r.Round != i+1 {
			t.Fatalf("round %d is numbered %d", i, r.Round)
		}
		if r.BDDNodes <= 0 {
			t.Errorf("round %d records %d BDD nodes", r.Round, r.BDDNodes)
		}
	}
	if trace.EPVPRounds[0].Recomputed == 0 {
		t.Error("first round recomputed no routers")
	}

	if len(trace.SPFFIBs) == 0 {
		t.Error("no SPF FIB events despite a forwarding property")
	}
	if len(trace.SPFForwards) == 0 {
		t.Error("no SPF forwarding events despite a forwarding property")
	}
	if len(trace.PECCoalesce) == 0 {
		t.Error("no PEC-coalescing events")
	}

	var buf bytes.Buffer
	if err := tracer.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var back telemetry.Trace
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("trace JSON does not round-trip: %v", err)
	}
	if back.Schema != trace.Schema || len(back.EPVPRounds) != len(trace.EPVPRounds) ||
		len(back.Spans) != len(trace.Spans) {
		t.Errorf("round-tripped trace lost data")
	}
}

// TestVerifyTraceCacheHit checks a report-cache hit still produces a
// valid trace: identity metadata plus the report-stage span.
func TestVerifyTraceCacheHit(t *testing.T) {
	opts := expresso.Options{Properties: []expresso.Kind{expresso.RouteLeakFree}}
	v := expresso.NewVerifier(expresso.VerifierConfig{})
	ctx := context.Background()
	if _, _, err := v.VerifyText(ctx, testnet.Figure4, opts); err != nil {
		t.Fatal(err)
	}

	opts.Trace = expresso.NewTracer()
	_, info, err := v.VerifyText(ctx, testnet.Figure4, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !info.CacheHit {
		t.Fatal("second run was not a report-cache hit")
	}
	trace := opts.Trace.Finish()
	if trace.Digest != info.Digest {
		t.Errorf("trace digest = %q, want %q", trace.Digest, info.Digest)
	}
	if len(trace.Spans) != 1 || trace.Spans[0].Name != "report" || trace.Spans[0].Status != expresso.StageHit {
		t.Errorf("cache-hit spans = %+v, want one report hit", trace.Spans)
	}
	if len(trace.EPVPRounds) != 0 {
		t.Errorf("cache hit recorded %d EPVP rounds", len(trace.EPVPRounds))
	}
}

// TestVerifyTraceDirect checks the non-staged entry point (Network.Verify)
// also records rounds and stage spans — everything except the load stage,
// which only the text path times.
func TestVerifyTraceDirect(t *testing.T) {
	net, err := expresso.Load(testnet.Figure4)
	if err != nil {
		t.Fatal(err)
	}
	opts := expresso.Options{Trace: expresso.NewTracer()}
	rep, err := net.Verify(opts)
	if err != nil {
		t.Fatal(err)
	}
	trace := opts.Trace.Finish()
	if len(trace.EPVPRounds) != rep.Iterations {
		t.Errorf("trace has %d rounds, report says %d iterations",
			len(trace.EPVPRounds), rep.Iterations)
	}
	names := map[string]bool{}
	for _, sp := range trace.Spans {
		names[sp.Name] = true
	}
	for _, stage := range []string{"src", "routing_analysis", "spf", "forwarding_analysis"} {
		if !names[stage] {
			t.Errorf("no span for stage %q", stage)
		}
	}
}

// TestTraceOverhead prices the enabled tracing path against the nil-tracer
// baseline and asserts it stays under 5% on the region-1 fixture. It is a
// tier-2 check — timing-sensitive, so it only runs when the
// trace-overhead target sets EXPRESSO_TRACE_OVERHEAD=1.
func TestTraceOverhead(t *testing.T) {
	if os.Getenv("EXPRESSO_TRACE_OVERHEAD") != "1" {
		t.Skip("timing-sensitive; set EXPRESSO_TRACE_OVERHEAD=1 (make trace-overhead) to run")
	}
	text := netgen.CSP(netgen.CSPOldRegion(1))
	verify := func(traced bool) {
		net, err := expresso.Load(text)
		if err != nil {
			t.Fatal(err)
		}
		opts := expresso.Options{Properties: []expresso.Kind{expresso.RouteLeakFree}}
		if traced {
			opts.Trace = expresso.NewTracer()
		}
		if _, err := net.Verify(opts); err != nil {
			t.Fatal(err)
		}
	}
	// Min-of-3 per mode, interleaved: the minimum is robust against
	// one-off scheduler noise, and interleaving cancels slow drift.
	verify(false) // warm-up
	const rounds = 3
	minNS := func(cur, d float64) float64 {
		if cur == 0 || d < cur {
			return d
		}
		return cur
	}
	var base, traced float64
	for i := 0; i < rounds; i++ {
		start := time.Now()
		verify(false)
		base = minNS(base, float64(time.Since(start).Nanoseconds()))
		start = time.Now()
		verify(true)
		traced = minNS(traced, float64(time.Since(start).Nanoseconds()))
	}
	overhead := (traced - base) / base
	t.Logf("base %.0f ns/op, traced %.0f ns/op, overhead %.2f%%", base, traced, 100*overhead)
	if overhead > 0.05 {
		t.Errorf("tracing overhead %.2f%% exceeds 5%%", 100*overhead)
	}
}
