package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"github.com/expresso-verify/expresso"
)

// edit is one seeded one-router change to the baseline: a new local
// preference on one line of one peering router's import policy.
type edit struct {
	id     int
	router string
	patch  expresso.Patch
	text   string // the baseline with the patch applied
}

// editor hands out fresh edits (never submitted before) and remembers the
// ones that completed, for resubmission.
type editor struct {
	base     string
	sections map[string][]string // router -> its section's lines
	targets  []editTarget        // editable lines, in config order

	mu      sync.Mutex
	rng     *rand.Rand
	used    map[string]bool
	done    []*edit // completed fresh edits, oldest first
	oldNext int     // index in done of the next old resubmission
}

type editTarget struct {
	router string
	line   int
	pref   int
}

func newEditor(base string, seed int64) *editor {
	e := &editor{base: base, sections: map[string][]string{}, rng: rand.New(rand.NewSource(seed)), used: map[string]bool{}}
	var cur string
	var order []string
	for _, line := range strings.Split(base, "\n") {
		if name, ok := strings.CutPrefix(line, "router "); ok {
			cur = strings.TrimSpace(name)
			order = append(order, cur)
		}
		if cur != "" {
			e.sections[cur] = append(e.sections[cur], line)
		}
	}
	for _, router := range order {
		if !strings.Contains(router, "PR") {
			continue // only peering routers carry import policies
		}
		for i, line := range e.sections[router] {
			var pref int
			if _, err := fmt.Sscanf(strings.TrimSpace(line), "set local-preference %d", &pref); err == nil {
				e.targets = append(e.targets, editTarget{router, i, pref})
			}
		}
	}
	return e
}

// fresh returns an edit never handed out before.
func (e *editor) fresh() (*edit, error) {
	e.mu.Lock()
	var t editTarget
	var pref int
	for tries := 0; ; tries++ {
		if len(e.targets) == 0 || tries > 10000 {
			e.mu.Unlock()
			return nil, fmt.Errorf("no fresh edit left")
		}
		t = e.targets[e.rng.Intn(len(e.targets))]
		pref = 101 + e.rng.Intn(99)
		key := fmt.Sprintf("%s/%d/%d", t.router, t.line, pref)
		if pref != t.pref && !e.used[key] {
			e.used[key] = true
			break
		}
	}
	id := len(e.used)
	e.mu.Unlock()

	lines := append([]string(nil), e.sections[t.router]...)
	lines[t.line] = fmt.Sprintf(" set local-preference %d", pref)
	patch := expresso.Patch{Ops: []expresso.PatchOp{{Op: "set", Router: t.router, Config: strings.Join(lines, "\n")}}}
	text, err := expresso.ApplyPatch(e.base, patch)
	if err != nil {
		return nil, fmt.Errorf("apply edit: %w", err)
	}
	return &edit{id: id, router: t.router, patch: patch, text: text}, nil
}

// completed records a fresh edit whose verdict came back.
func (e *editor) completed(ed *edit) {
	e.mu.Lock()
	e.done = append(e.done, ed)
	e.mu.Unlock()
}

// resubmission picks an earlier edit: the most recent completed one when
// old is false (its report is still in the server's report cache), else
// the oldest completed edit not yet resubmitted as old, provided at least
// skip edits completed after it (so no in-memory cache holds it and the
// store serves it). It falls back to the most recent when no edit is that
// old, and returns nil before any edit completed.
func (e *editor) resubmission(old bool, skip int) *edit {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := len(e.done)
	if n == 0 {
		return nil
	}
	if old && n-e.oldNext > skip {
		e.oldNext++
		return e.done[e.oldNext-1]
	}
	return e.done[n-1]
}
