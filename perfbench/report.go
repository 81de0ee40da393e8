package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	gort "runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// Metric is one named measurement: every trial value of the run and
// the unit. While a run collects, Value is the median of the trials;
// the value reported at the end is their slow quartile (the median for
// setup_s).
type Metric struct {
	Unit   string    `json:"unit"`
	Value  float64   `json:"value"`
	Trials []float64 `json:"trials"`
}

// Check is one correctness gate. A failed gate counts as a failed
// operation.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// Report collects what one workload run measured and verified.
type Report struct {
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Checks    []Check            `json:"checks"`
	Metrics   map[string]*Metric `json:"metrics"`
	// Notes records run facts that are not metrics (sizes, trial counts).
	Notes map[string]any `json:"notes,omitempty"`
}

func newReport() *Report {
	return &Report{Metrics: map[string]*Metric{}, Notes: map[string]any{}}
}

// add appends trial values to a metric and refreshes its median.
func (r *Report) add(name, unit string, vals ...float64) {
	m := r.Metrics[name]
	if m == nil {
		m = &Metric{Unit: unit}
		r.Metrics[name] = m
	}
	m.Trials = append(m.Trials, vals...)
	m.Value = median(m.Trials)
}

// set records a metric measured once (or already reduced).
func (r *Report) set(name, unit string, v float64) {
	delete(r.Metrics, name)
	r.add(name, unit, v)
}

// pct adds one trial's median and 99th percentile of a sample set as
// trial values of two metrics, so the reported figure is the median
// over trials of the per-trial percentile: steadier than a percentile
// of the pooled samples, whose tail moves with every scheduler hiccup.
func (r *Report) pct(p50, p99, unit string, s samples) {
	r.add(p50, unit, s.q(0.5))
	r.add(p99, unit, s.q(0.99))
}

// drop forgets metrics (samples of a cold first phase).
func (r *Report) drop(names ...string) {
	for _, n := range names {
		delete(r.Metrics, n)
	}
}

// ops counts attempted and failed operations.
func (r *Report) ops(attempted, failed int64) {
	r.Attempted += attempted
	r.Failed += failed
}

// check records a correctness gate; a failed gate is a failed operation.
func (r *Report) check(name string, ok bool, format string, args ...any) {
	c := Check{Name: name, OK: ok}
	if format != "" {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.Checks = append(r.Checks, c)
	r.Attempted++
	if !ok {
		r.Failed++
	}
}

// merge copies the metrics of o that r does not have yet, and adds
// o's operation counts and checks.
func (r *Report) merge(o *Report, prefix string) {
	for name, m := range o.Metrics {
		if _, ok := r.Metrics[name]; !ok {
			r.Metrics[name] = m
		}
	}
	for _, c := range o.Checks {
		c.Name = prefix + c.Name
		r.Checks = append(r.Checks, c)
	}
	r.Attempted += o.Attempted
	r.Failed += o.Failed
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// slowQuartile is the value a metric reports: the quartile of its
// trials on the worse side (the 25th percentile of a higher-is-better
// metric, the 75th of a lower-is-better one), the figure three trials
// in four meet or beat. On a shared host the program's speed flips
// between a slow and a fast level for seconds at a time, and the share
// of a run spent at each level differs from run to run. The median
// lands on whichever level holds more than half of the run, so it
// jumps from one level to the other as that share crosses one half;
// the slow quartile stays on the slow level until the fast one holds
// three quarters of the run.
func slowQuartile(v []float64, higherIsBetter bool) float64 {
	if higherIsBetter {
		return quantile(v, 0.25)
	}
	return quantile(v, 0.75)
}

// quantile returns the q-quantile of v by linear interpolation between
// closest ranks (v is not modified).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// samples is a latency sample set.
type samples []float64

func (s samples) q(q float64) float64 { return quantile(s, q) }

// since is the time elapsed since t in ns: the stopwatch the benchmark
// wraps around its calls into a layer.
func since(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) }

// liveHeap returns the live heap in bytes after two collections, so
// sync.Pool victim caches and float from earlier phases are gone and
// the figure repeats run to run.
func liveHeap() uint64 {
	gort.GC()
	gort.GC()
	var ms gort.MemStats
	gort.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// gcStats is a snapshot of the collector counters.
type gcStats struct {
	cycles  uint32
	pauseNs uint64
	mallocs uint64
}

func readGC() gcStats {
	var ms gort.MemStats
	gort.ReadMemStats(&ms)
	return gcStats{cycles: ms.NumGC, pauseNs: ms.PauseTotalNs, mallocs: ms.Mallocs}
}

// gcMeter sums collector cycles and pause time over the measured
// phases only: the benchmark's own collections between phases are not
// counted.
type gcMeter struct {
	cycles  uint32
	pauseNs uint64
	at      gcStats
}

func (m *gcMeter) start() { m.at = readGC() }

func (m *gcMeter) stop() {
	g := readGC()
	m.cycles += g.cycles - m.at.cycles
	m.pauseNs += g.pauseNs - m.at.pauseNs
}

func (m *gcMeter) report(r *Report) {
	r.set("gc.cycles", "count", float64(m.cycles))
	r.set("gc.pause_ms", "ms", float64(m.pauseNs)/1e6)
}

// Env is the environment a result was measured in.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
	Revision   string `json:"revision"`
	Time       string `json:"time"`
}

func environment() Env {
	return Env{
		GoVersion:  gort.Version(),
		GOOS:       gort.GOOS,
		GOARCH:     gort.GOARCH,
		GOMAXPROCS: gort.GOMAXPROCS(0),
		NumCPU:     gort.NumCPU(),
		CPUModel:   cpuModel(),
		Revision:   revision(),
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
}

// cpuModel reads the processor name the kernel reports, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// revision is the source revision the binary was built from: the VCS
// stamp when the build ran in a checkout that has one, else "unknown".
func revision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	return "unknown"
}
