package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span names. They are the pipeline's stage names (internal/pipeline)
// plus the two halves of the SRC stage, so a layer flagged here can be
// followed down with `expresso trace diff`.
const (
	spanVerify     = "verify"
	spanLoad       = "load"
	spanSRC        = "src"
	spanCompile    = "src.compile"
	spanRounds     = "src.rounds"
	spanRouting    = "routing_analysis"
	spanSPF        = "spf"
	spanForwarding = "forwarding_analysis"
	spanReport     = "report"
	// Service-side spans: the client's request, and the queue wait and
	// run the server reports for it.
	spanRequest = "request"
	spanQueue   = "service.queue"
	spanRun     = "service.run"
)

// Span is one benchmark-side timing record around a call into a layer.
// Start and End are offsets from the recorder's epoch. Self is the
// duration minus the part of [Start, End] covered by child spans; it is
// filled in by finish.
type Span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0 = root
	Request int     `json:"request"`
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// Recorder keeps spans in memory until the run ends. A nil *Recorder is
// the untraced path: every method is a no-op.
type Recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
	// inject lengthens every span of the named layers by a fixed delay,
	// shifting all later timestamps with it: a virtual slowdown of that
	// layer, used by the comparison self-test. skew is the delay
	// accumulated so far.
	inject map[string]time.Duration
	skew   time.Duration
	// tee, when set, records the same spans too, so one run can be seen
	// with and without an injected delay.
	tee *Recorder
}

func newRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

func (r *Recorder) ms(t time.Time) float64 {
	return float64((t.Sub(r.epoch) + r.skew).Nanoseconds()) / 1e6
}

// open starts a span and returns its id (0 when r is nil).
func (r *Recorder) open(name string, parent, request int) int {
	if r == nil {
		return 0
	}
	now := time.Now()
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Request: request, Name: name, StartMS: r.ms(now), EndMS: -1})
	r.mu.Unlock()
	r.tee.open(name, parent, request)
	return id
}

// close ends the span opened as id.
func (r *Recorder) close(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Now()
	r.mu.Lock()
	s := &r.spans[id-1]
	r.skew += r.inject[s.Name]
	s.EndMS = r.ms(now)
	r.mu.Unlock()
	r.tee.close(id)
}

// add records a span whose bounds were measured elsewhere (the server's
// job timestamps) and returns its id.
func (r *Recorder) add(name string, parent, request int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Request: request, Name: name, StartMS: r.ms(start), EndMS: r.ms(end)})
	return id
}

// finish computes every span's self time and returns a copy of the spans.
func (r *Recorder) finish() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	spans := append([]Span(nil), r.spans...)
	r.mu.Unlock()
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i, s := range spans {
		spans[i].SelfMS = (s.EndMS - s.StartMS) - covered(s, children[s.ID])
	}
	return spans
}

// covered is the length of [s.Start, s.End] that the union of kids
// covers; overlapping children (parallel work) are counted once.
func covered(s Span, kids []Span) float64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartMS < kids[j].StartMS })
	total, curS, curE := 0.0, -1.0, -1.0
	for _, k := range kids {
		ks, ke := max(k.StartMS, s.StartMS), min(k.EndMS, s.EndMS)
		if ke <= ks {
			continue
		}
		if ks > curE {
			total += curE - curS
			curS, curE = ks, ke
		} else if ke > curE {
			curE = ke
		}
	}
	return total + curE - curS
}

// selfByName returns, per span name, the self time of every span of that
// name, in recording order.
func selfByName(spans []Span) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s.SelfMS)
	}
	return out
}

// writeSpans writes the spans as JSON to path.
func writeSpans(path string, spans []Span) error {
	raw, err := json.MarshalIndent(struct {
		Schema string `json:"schema"`
		Spans  []Span `json:"spans"`
	}{"perfbench-spans/1", spans}, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
