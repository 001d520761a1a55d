package pipeline

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/expresso-verify/expresso/internal/epvp"
	"github.com/expresso-verify/expresso/internal/properties"
	"github.com/expresso-verify/expresso/internal/testnet"
)

// TestHeapPressureReclaimUnderRunLock drives two concurrent baseline
// deltas through one Runner with the heap-pressure threshold lowered to
// zero, so the post-SRC collection fires after every warm run. Both deltas
// compute in the baseline's shared manager, whose default-worker op caches
// the collection drops: dropping them outside the run lock races the other
// delta's EPVP run, which `go test -race` reports.
func TestHeapPressureReclaimUnderRunLock(t *testing.T) {
	saved := heapPressureThreshold
	heapPressureThreshold = 0
	t.Cleanup(func() { heapPressureThreshold = saved })

	ctx := context.Background()
	reg := NewBaselineRegistry()
	r := &Runner{Baselines: reg}
	mode := epvp.FullMode()
	props := []properties.Kind{properties.RouteLeakFree}
	base := testnet.Figure4Fixed
	out, err := r.Run(ctx, &Request{Load: loadT(t, base), Mode: mode, Properties: props, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(NewBaseline("base", base, out, time.Now())); err != nil {
		t.Fatal(err)
	}

	const perClient = 6
	var wg sync.WaitGroup
	errs := make(chan error, 2*perClient)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				text := base + fmt.Sprintf("bgp network 203.0.%d.%d/32\n", 113+c, i)
				load, err := Load(text)
				if err != nil {
					errs <- err
					return
				}
				out, err := r.Run(ctx, &Request{Load: load, Mode: mode, Properties: props, Workers: 1, Baseline: "base"})
				if err != nil {
					errs <- err
					return
				}
				if st := out.Stages[0]; st.Status != StatusWarm || st.Note == "" {
					errs <- fmt.Errorf("delta SRC stage = %+v, want a warm start from the baseline", st)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
