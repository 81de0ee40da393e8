package netcl

import (
	"fmt"
	gort "runtime"
	"strings"

	"netcl/internal/apps"
)

// Network-simulator scale benchmark: the slab/SoA, typed-event,
// partitioned engine swept over host counts and partition counts under
// the chained-AGG scenario, emitted as BENCH_netsim.json by
// `nclbench -netsim`.

// NetsimPoint is one (hosts, partitions) measurement.
type NetsimPoint = apps.NetsimResult

// NetsimReport is the simulator scale benchmark.
type NetsimReport struct {
	// GOMAXPROCS/NumCPU record the machine: partitioned windows run on
	// one worker goroutine per partition, so on a 1-CPU box they
	// serialize and the partition sweep measures engine overhead, not
	// parallel speedup.
	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`
	Devices    int `json:"devices"`
	Rounds     int `json:"rounds"`
	// BaselineBytesPerHost is the seed engine's per-host heap cost
	// (struct + uplink + map entry), measured at BaselineHosts hosts —
	// the map key was uint16, so the seed tops out at 65536.
	BaselineBytesPerHost float64        `json:"baseline_bytes_per_host"`
	BaselineHosts        int            `json:"baseline_hosts"`
	Points               []*NetsimPoint `json:"points"`
}

// BenchNetsim sweeps the simulator over host counts {10k, 100k, 1M}
// and partition counts {1, 2, 4}; smoke restricts to 10k hosts and
// partitions {1, 2} (the CI variant). Every point checks that all
// expected slot multicasts completed and aggregated correctly.
func BenchNetsim(smoke bool) (*NetsimReport, error) {
	scales := []int{10_000, 100_000, 1_000_000}
	parts := []int{1, 2, 4}
	if smoke {
		scales = []int{10_000}
		parts = []int{1, 2}
	}
	rep := &NetsimReport{
		GOMAXPROCS: gort.GOMAXPROCS(0), NumCPU: gort.NumCPU(),
		Devices: 16, Rounds: 2,
	}
	rep.BaselineBytesPerHost, rep.BaselineHosts = apps.BaselineBytesPerHost(scales[len(scales)-1])
	for _, hosts := range scales {
		for _, k := range parts {
			res, err := apps.RunNetsimScale(apps.NetsimConfig{
				Hosts: hosts, Devices: rep.Devices, Partitions: k,
				Rounds: rep.Rounds, RemoteEvery: 64,
			})
			if err != nil {
				return nil, fmt.Errorf("netsim %d hosts, %d partitions: %w", hosts, k, err)
			}
			if res.Completed != res.Expected || res.Mismatches != 0 {
				return nil, fmt.Errorf("netsim %d hosts, %d partitions: %d/%d slot multicasts completed, %d mismatches",
					hosts, k, res.Completed, res.Expected, res.Mismatches)
			}
			rep.Points = append(rep.Points, res)
		}
	}
	return rep, nil
}

// FormatNetsim renders the benchmark as text.
func FormatNetsim(rep *NetsimReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "NETSIM — partitioned event engine, chained AGG × %d devices, %d rounds/pair (GOMAXPROCS=%d, NumCPU=%d)\n",
		rep.Devices, rep.Rounds, rep.GOMAXPROCS, rep.NumCPU)
	fmt.Fprintf(&b, "seed baseline: %.0f bytes/host at %d hosts (struct-per-host + map)\n",
		rep.BaselineBytesPerHost, rep.BaselineHosts)
	fmt.Fprintf(&b, "%-9s %5s %10s %12s %12s %9s %11s %10s\n",
		"HOSTS", "PARTS", "EVENTS", "EVENTS/SEC", "ALLOCS/EVT", "B/HOST", "COMPLETED", "WALL(ms)")
	for _, p := range rep.Points {
		fmt.Fprintf(&b, "%-9d %5d %10d %12.0f %12.4f %9.0f %11d %10.1f\n",
			p.Hosts, p.Partitions, p.Events, p.EventsPerSec, p.AllocsPerEvent,
			p.BytesPerHost, p.Completed, p.WallNs/1e6)
	}
	if rep.NumCPU == 1 {
		b.WriteString("note: single-CPU machine — partitions time-share one core, so the partition sweep measures windowing overhead, not parallel scaling\n")
	}
	return b.String()
}
