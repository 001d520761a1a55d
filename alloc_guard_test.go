package expresso_test

import (
	"os"
	"runtime"
	"testing"

	"github.com/expresso-verify/expresso"
	"github.com/expresso-verify/expresso/internal/netgen"
)

// region1AllocCeiling is the allocation-regression budget for one cold
// region-1 verification. The PR-5 BDD overhaul (bounded lossy operation
// caches replacing exact rehashing memo tables) brought the run from
// ~224 MB to ~112 MB of allocations, and building every prefix predicate
// as one bottom-up cube instead of chained Ands brought it from ~126 MB
// to 45–54 MB. The ceiling sits between the last two with headroom for
// noise, so a return to chained-And policy compilation fails loudly while
// normal variance passes.
const region1AllocCeiling = 90 << 20

// TestRegion1AllocGuard is the env-gated allocation-regression guard:
// it verifies region 1 cold and fails if the run allocates more than
// region1AllocCeiling bytes. Gated behind EXPRESSO_ALLOC_GUARD because
// the measurement needs a quiet heap (about a minute of wall clock with
// warm-up, and meaningless when other tests run concurrently); `make
// alloc-guard` — part of `make ci` — sets the variable.
func TestRegion1AllocGuard(t *testing.T) {
	if os.Getenv("EXPRESSO_ALLOC_GUARD") == "" {
		t.Skip("set EXPRESSO_ALLOC_GUARD=1 (make alloc-guard) to run the allocation-regression guard")
	}
	text := netgen.CSP(netgen.CSPOldRegion(1))
	opts := expresso.Options{Properties: []expresso.Kind{expresso.RouteLeakFree}}
	run := func() {
		net, err := expresso.Load(text)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.Verify(opts); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up: lazy initialization outside the measured window

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("region-1 cold verification allocated %d bytes (ceiling %d)", allocated, uint64(region1AllocCeiling))
	if allocated > region1AllocCeiling {
		t.Errorf("region-1 verification allocated %d bytes, over the %d-byte regression ceiling",
			allocated, uint64(region1AllocCeiling))
	}
}
