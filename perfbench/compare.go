package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// Regression rule for per-layer times, the same as `expresso trace diff`:
// a layer regressed when its time grew by more than 25% AND by more than
// 1 ms.
const (
	regressRel   = 0.25
	regressAbsMS = 1.0
)

// layerDelta is one per-layer metric in both result files.
type layerDelta struct {
	Name      string
	Old, New  float64
	Unit      string
	Regressed bool
}

// compareResults pairs the per-layer metrics of two results and flags each
// time (unit ms) that regressed.
func compareResults(old, new *Result) []layerDelta {
	var out []layerDelta
	for _, m := range perLayerMetrics {
		o, okO := old.Metrics[m.Name]
		n, okN := new.Metrics[m.Name]
		if !okO || !okN {
			continue
		}
		d := layerDelta{Name: m.Name, Old: o.Value, New: n.Value, Unit: m.Unit}
		if m.Unit == "ms" {
			d.Regressed = n.Value-o.Value > regressAbsMS && n.Value > o.Value*(1+regressRel)
		}
		out = append(out, d)
	}
	return out
}

// regressedLayers names the layers flagged in deltas, sorted.
func regressedLayers(deltas []layerDelta) []string {
	var out []string
	for _, d := range deltas {
		if d.Regressed {
			out = append(out, strings.TrimSuffix(d.Name, ".ms"))
		}
	}
	sort.Strings(out)
	return out
}

func loadResult(path string) (*Result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints the per-layer comparison of two traced result files
// and reports whether any layer regressed.
func compareFiles(w io.Writer, oldPath, newPath string) (bool, error) {
	old, err := loadResult(oldPath)
	if err != nil {
		return false, err
	}
	new, err := loadResult(newPath)
	if err != nil {
		return false, err
	}
	if old.Workload != new.Workload {
		return false, fmt.Errorf("results are of different workloads: %s, %s", old.Workload, new.Workload)
	}
	deltas := compareResults(old, new)
	if len(deltas) == 0 {
		return false, fmt.Errorf("no per-layer metrics in common (compare traced runs)")
	}
	fmt.Fprintf(w, "%s: %s (%s) -> %s (%s)\n", old.Workload, old.Env.Commit, oldPath, new.Env.Commit, newPath)
	for _, d := range deltas {
		mark := ""
		if d.Regressed {
			mark = "  REGRESSED"
		}
		fmt.Fprintf(w, "  %-32s %14.4f -> %14.4f %s%s\n", d.Name, d.Old, d.New, d.Unit, mark)
	}
	bad := regressedLayers(deltas)
	if len(bad) > 0 {
		fmt.Fprintf(w, "regressed layers: %s\n", strings.Join(bad, ", "))
	}
	return len(bad) > 0, nil
}
