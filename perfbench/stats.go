package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// summary is a metric's median with quartiles and its sample count.
type summary struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

func summarize(xs []float64, unit string) summary {
	return summary{Value: quantile(xs, 0.5), Unit: unit, Q1: quantile(xs, 0.25),
		Q3: quantile(xs, 0.75), N: len(xs)}
}

// exact is a value that is not sampled: a count or a ratio of counts.
func exact(v float64, unit string) summary { return summary{Value: v, Unit: unit, Q1: v, Q3: v, N: 1} }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssMB reads the process's current resident set size in MiB.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// peakDuring runs f while sampling the resident set size every few
// milliseconds, and returns the largest sample. Linux's own high-water
// mark spans the whole process, so it cannot give a per-pass peak.
func peakDuring(f func()) float64 {
	stop, done := make(chan struct{}), make(chan float64)
	go func() {
		peak := rssMB()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				peak = max(peak, rssMB())
			case <-stop:
				done <- max(peak, rssMB())
				return
			}
		}
	}()
	f()
	close(stop)
	return <-done
}

// provenance identifies the host and build a result was measured on.
type provenance struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Passes     int    `json:"passes"`
}

// host is the part of the provenance two results must share for their
// comparison to be more than advisory.
func (p provenance) host() string {
	return strings.Join([]string{p.CPUModel, strconv.Itoa(p.NumCPU), strconv.Itoa(p.GOMAXPROCS), p.GoVersion}, "|")
}

func newProvenance(seed uint64, seconds int) provenance {
	p := provenance{CPUModel: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown", Seed: seed, Seconds: seconds}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				p.Commit = s.Value
			}
		}
	}
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		p.Commit = c
	}
	return p
}
