package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median of xs (0 for an empty slice).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tail returns the latency at percentile level and the number of
// samples beyond it. A workload fixes its level in advance as the highest
// percentile that keeps at least ten samples beyond it at its usual
// sample count, so the metric means the same thing in every run.
func tail(xs []float64, level float64) (value float64, beyond int) {
	return quantile(xs, level), int(float64(len(xs)) * (1 - level))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// Env is the machine and build identity every record states.
type Env struct {
	NProc         int    `json:"nproc"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	EngineWorkers int    `json:"engine_workers"`
	Clients       int    `json:"clients"`
	GoVersion     string `json:"go_version"`
	Commit        string `json:"commit"`
}

func currentEnv(engineWorkers, clients int) Env {
	return Env{
		NProc:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		EngineWorkers: engineWorkers,
		Clients:       clients,
		GoVersion:     runtime.Version(),
		Commit:        commit(),
	}
}

// commit names the code under test: the git revision when the checkout is
// a git work tree, else the build's VCS stamp, else "src:" and a digest of
// the checkout's Go sources, so result files from checkouts without git
// metadata still name what they measured.
func commit() string {
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(head))
		name, isRef := strings.CutPrefix(ref, "ref: ")
		if !isRef {
			return ref
		}
		if rev, err := os.ReadFile(".git/" + name); err == nil {
			return strings.TrimSpace(string(rev))
		}
		if packed, err := os.ReadFile(".git/packed-refs"); err == nil {
			for _, line := range strings.Split(string(packed), "\n") {
				if rev, ok := strings.CutSuffix(line, " "+name); ok {
					return rev
				}
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "src:" + sourceDigest(".")
}

// sourceDigest hashes the path and content of every .go, go.mod and
// BENCHMARK.json file under root, skipping dot-directories (the build
// output among them).
func sourceDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry just drops out of the digest
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "BENCHMARK.json" {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(raw))
		h.Write(raw)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}
