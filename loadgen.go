package netcl

import (
	"fmt"
	gort "runtime"
	"strings"

	"netcl/internal/apps"
	"netcl/internal/passes"
)

// Load-generator benchmark: the flow-sharded data plane swept over
// shard counts under an open-loop AGG workload, emitted as
// BENCH_loadgen.json by `nclbench -loadgen`.

// LoadgenPoint is one shard count's measurement.
type LoadgenPoint = apps.LoadgenResult

// LoadgenReport is the multi-core data-plane benchmark.
type LoadgenReport struct {
	// GOMAXPROCS/NumCPU record the machine the sweep ran on: shard
	// scaling is bounded by available cores, so a 1-CPU box serializes
	// all shards and the sweep degenerates to overhead measurement.
	GOMAXPROCS     int             `json:"gomaxprocs"`
	NumCPU         int             `json:"num_cpu"`
	Hosts          int             `json:"hosts"`
	Pools          int             `json:"pools"`
	PacketsPerFlow int             `json:"packets_per_flow"`
	Points         []*LoadgenPoint `json:"points"`
}

// BenchLoadgen sweeps the sharded engine with a closed-loop many-pool
// AGG workload (pkts packets per flow, 0 = default): shard counts
// {1, 2, 4, 8} at the default worker burst, then burst sizes {1, 8, 32}
// at one shard, isolating the burst-drain delta on a single core.
// Every point verifies per-flow results against a single-shard replay.
func BenchLoadgen(pkts int) (*LoadgenReport, error) {
	if pkts <= 0 {
		pkts = 256
	}
	rep := &LoadgenReport{
		GOMAXPROCS: gort.GOMAXPROCS(0), NumCPU: gort.NumCPU(),
		Hosts: 8, Pools: 256, PacketsPerFlow: pkts,
	}
	run := func(shards, burst int) error {
		res, err := apps.RunLoadgen(apps.LoadgenConfig{
			Shards: shards, QueueDepth: 256, Burst: burst,
			Hosts: rep.Hosts, Pools: rep.Pools, Packets: pkts,
			Verify: true, Target: passes.TargetTNA,
		})
		if err != nil {
			return fmt.Errorf("loadgen %d shards, burst %d: %w", shards, burst, err)
		}
		if res.Mismatches != 0 {
			return fmt.Errorf("loadgen %d shards, burst %d: %d per-flow mismatches vs single-shard replay",
				shards, burst, res.Mismatches)
		}
		rep.Points = append(rep.Points, res)
		return nil
	}
	for _, shards := range []int{1, 2, 4, 8} {
		if err := run(shards, 0); err != nil {
			return nil, err
		}
	}
	for _, burst := range []int{1, 8, 32} {
		if err := run(1, burst); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// FormatLoadgen renders the benchmark as text.
func FormatLoadgen(rep *LoadgenReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "LOADGEN — flow-sharded data plane, AGG %d pools × %d pkts, %d hosts (GOMAXPROCS=%d, NumCPU=%d)\n",
		rep.Pools, rep.PacketsPerFlow, rep.Hosts, rep.GOMAXPROCS, rep.NumCPU)
	fmt.Fprintf(&b, "%-7s %6s %12s %8s %10s %10s %10s %10s %9s\n",
		"SHARDS", "BURST", "PKTS/SEC", "SPEEDUP", "P50(µs)", "P90(µs)", "P99(µs)", "SHED", "VERIFIED")
	base := 0.0
	for _, p := range rep.Points {
		if base == 0 {
			base = p.PPS
		}
		speedup := 0.0
		if base > 0 {
			speedup = p.PPS / base
		}
		fmt.Fprintf(&b, "%-7d %6d %12.0f %7.2fx %10.2f %10.2f %10.2f %10d %6d/%d\n",
			p.Shards, p.Burst, p.PPS, speedup, p.P50Ns/1e3, p.P90Ns/1e3, p.P99Ns/1e3,
			p.Shed, p.VerifiedFlows-p.Mismatches, p.VerifiedFlows)
	}
	if rep.NumCPU == 1 {
		b.WriteString("note: single-CPU machine — shards time-share one core, so speedup reflects dispatch overhead, not parallel scaling\n")
	}
	return b.String()
}
