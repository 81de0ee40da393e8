package netcl

import (
	"fmt"
	"strings"

	"netcl/internal/apps"
	"netcl/internal/passes"
)

// Host-path benchmark: the pipelined channel swept over window sizes
// on the simulated network, emitted as BENCH_hostpath.json by
// `nclbench -hostpath`. Simulated time makes the sweep deterministic;
// the allocation probe is the only wall-clock measurement.

// HostpathPoint is one window size's measurement.
type HostpathPoint = apps.HostpathResult

// HostpathReport is the host-path pipeline benchmark.
type HostpathReport struct {
	Ops    int              `json:"ops"`
	Points []*HostpathPoint `json:"points"`
	// AllocsPerMsg is steady-state heap allocations per message on the
	// channel send path (pooled pack + post + complete).
	AllocsPerMsg float64 `json:"allocs_per_msg"`
}

// BenchHostpath sweeps the channel over window sizes {1,4,16,64} with
// ops CALC calls each (0 = default) and probes send-path allocations.
// Every point must produce the identical result-hash chain: the window
// only reorders transport traffic, never application results.
func BenchHostpath(ops int) (*HostpathReport, error) {
	if ops <= 0 {
		ops = 512
	}
	rep := &HostpathReport{Ops: ops}
	for _, w := range []int{1, 4, 16, 64} {
		res, err := apps.RunHostpath(apps.HostpathConfig{
			Window: w, Ops: ops, Target: passes.TargetTNA,
		})
		if err != nil {
			return nil, fmt.Errorf("hostpath window %d: %w", w, err)
		}
		if res.Mismatches != 0 {
			return nil, fmt.Errorf("hostpath window %d: %d wrong results", w, res.Mismatches)
		}
		if len(rep.Points) > 0 && res.Results != rep.Points[0].Results {
			return nil, fmt.Errorf("hostpath window %d: result hash diverged from window %d",
				w, rep.Points[0].Window)
		}
		rep.Points = append(rep.Points, res)
	}
	allocs, err := apps.HostpathSendAllocs(0)
	if err != nil {
		return nil, err
	}
	rep.AllocsPerMsg = allocs
	return rep, nil
}

// FormatHostpath renders the benchmark as text.
func FormatHostpath(rep *HostpathReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "HOSTPATH — pipelined channel over the simulated network, %d CALC calls per point\n", rep.Ops)
	fmt.Fprintf(&b, "%-7s %14s %8s %10s %10s %8s %9s\n",
		"WINDOW", "MSGS/SEC(sim)", "SPEEDUP", "P50(µs)", "P99(µs)", "RETRANS", "INFLIGHT")
	base := 0.0
	for _, p := range rep.Points {
		if base == 0 {
			base = p.MsgsPerSec
		}
		speedup := 0.0
		if base > 0 {
			speedup = p.MsgsPerSec / base
		}
		fmt.Fprintf(&b, "%-7d %14.0f %7.2fx %10.2f %10.2f %8d %9d\n",
			p.Window, p.MsgsPerSec, speedup, p.P50Ns/1e3, p.P99Ns/1e3,
			p.Retransmits, p.PeakInFlight)
	}
	fmt.Fprintf(&b, "send path: %.2f allocs/msg (pooled pack + post + complete)\n", rep.AllocsPerMsg)
	return b.String()
}
