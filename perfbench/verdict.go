package main

import (
	"embed"
	"fmt"
	"sort"
	"strings"

	"github.com/expresso-verify/expresso"
	"github.com/expresso-verify/expresso/internal/epvp"
	"github.com/expresso-verify/expresso/internal/witness"
)

// golden holds, per workload, the violation identities of its fixture at
// the default seed (1): one `Kind|Node|Detail` line each, sorted — the
// key `expresso gate` compares violations under.
//
//go:embed golden/*.txt
var golden embed.FS

// identities renders violations as sorted `Kind|Node|Detail` keys.
func identities(vs []expresso.Violation) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = string(v.Kind) + "|" + v.Node + "|" + v.Detail
	}
	sort.Strings(out)
	return out
}

// sameIdentities reports whether two violation lists name the same
// findings.
func sameIdentities(a, b []expresso.Violation) bool {
	return strings.Join(identities(a), "\n") == strings.Join(identities(b), "\n")
}

// checkGolden compares vs against the workload's golden file.
func checkGolden(workload string, vs []expresso.Violation) error {
	raw, err := golden.ReadFile("golden/" + workload + ".txt")
	if err != nil {
		return fmt.Errorf("golden set for %s: %w", workload, err)
	}
	want := strings.TrimSpace(string(raw))
	got := strings.Join(identities(vs), "\n")
	if got != want {
		return fmt.Errorf("%s: violations differ from the golden set (%d found, %d expected)",
			workload, len(vs), len(strings.Split(want, "\n")))
	}
	return nil
}

// confirmRouting replays every routing violation through the concrete
// SPVP simulator and fails if any does not reproduce.
func confirmRouting(eng *epvp.Engine, vs []expresso.Violation) error {
	var bad []string
	for _, line := range witness.ConfirmRoutingViolations(eng, vs) {
		if !strings.Contains(line, ": confirmed: ") {
			bad = append(bad, line)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("%d routing violations not reproduced by the concrete replay, first: %s", len(bad), bad[0])
	}
	return nil
}
