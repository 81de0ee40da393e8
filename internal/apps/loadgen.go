package apps

// loadgen.go is an open-loop load generator for the flow-sharded data
// plane: many simulated hosts stream SwitchML-style AGG traffic at a
// configurable offered load into a bmv2.Sharded engine, measuring
// sustained throughput and p50/p90/p99 latency. Each pool index is one
// flow; pools are partitioned across hosts, so every flow has a single
// submitter (per-flow FIFO) and its packets serialize on one shard
// (the shard-by-flow invariant). Verification replays each flow's
// accepted packets, flow-major, on a fresh single-shard switch and
// compares per-flow result-hash chains — the sharded run must be
// byte-identical per flow.

import (
	"fmt"
	gort "runtime"
	"sync"
	"time"

	"netcl/internal/bmv2"
	"netcl/internal/passes"
	"netcl/internal/runtime"
	"netcl/internal/wire"
)

// LoadgenConfig parameterizes one load-generator run.
type LoadgenConfig struct {
	// Shards is the worker count of the sharded engine (default 1).
	Shards int
	// QueueDepth bounds each shard's queue (default 256).
	QueueDepth int
	// Burst caps the jobs a worker drains per wakeup into one burst
	// execution (0 = bmv2.MaxBurst, 1 disables bursting).
	Burst int
	// Hosts is the number of concurrent submitter goroutines (default 4).
	Hosts int
	// Pools is the number of AGG pool indices = flows (default 64).
	// Pools are partitioned across hosts.
	Pools int
	// Packets is the packet count per flow (default 128).
	Packets int
	// OfferedPPS is the total offered load in packets/sec; 0 runs
	// closed-loop at maximum rate (retrying on backpressure instead of
	// shedding).
	OfferedPPS float64
	// Window caps the packets in flight (submitted, completion callback
	// not yet run) across all hosts; 0 leaves the load generator
	// open-throttle (the pre-windowing behavior).
	Window int
	// Verify replays every flow on a fresh single-shard switch and
	// compares result-hash chains.
	Verify bool
	// Target selects the compile target (default TNA).
	Target passes.Target
}

// LoadgenResult reports one run.
type LoadgenResult struct {
	Shards     int     `json:"shards"`
	Burst      int     `json:"burst"`
	Hosts      int     `json:"hosts"`
	Pools      int     `json:"pools"`
	OfferedPPS float64 `json:"offered_pps"`
	Submitted  uint64  `json:"submitted"`
	Processed  uint64  `json:"processed"`
	// Shed counts packets dropped at submission because the flow's
	// shard queue was full (open loop only).
	Shed uint64 `json:"shed"`
	// QueueFull counts all queue-full rejections, including closed-loop
	// retries of the same packet.
	QueueFull  uint64  `json:"queue_full"`
	DurationNs float64 `json:"duration_ns"`
	PPS        float64 `json:"pkts_per_sec"`
	// PeakInFlight is the highest concurrent in-flight count observed
	// when Window > 0 bounds the submitters.
	PeakInFlight int     `json:"peak_in_flight,omitempty"`
	P50Ns        float64 `json:"p50_ns"`
	P90Ns        float64 `json:"p90_ns"`
	P99Ns        float64 `json:"p99_ns"`
	MaxNs        float64 `json:"max_ns"`
	// VerifiedFlows/Mismatches report the per-flow determinism check.
	VerifiedFlows int `json:"verified_flows"`
	Mismatches    int `json:"mismatches"`
}

// aggFlowKey extracts the AGG flow identity — the 16-bit pool index
// bmp_idx, the field that selects every register slot the packet
// touches — from a framed packet (arg offset: 1-byte ver first).
func aggFlowKey(pkt []byte) uint64 {
	off := runtime.FrameOverhead + wire.HeaderBytes + 1
	if len(pkt) < off+2 {
		return 0
	}
	return uint64(pkt[off])<<8 | uint64(pkt[off+1])
}

// loadHash folds one processing outcome into a flow's result-hash
// chain (FNV-1a over output bytes and the egress decision).
func loadHash(h uint64, res *bmv2.Result, err error) uint64 {
	const prime = 1099511628211
	step := func(b byte) {
		h ^= uint64(b)
		h *= prime
	}
	if err != nil {
		step(0xEE)
		return h
	}
	for _, b := range res.Data {
		step(b)
	}
	step(byte(res.Port))
	step(byte(res.Port >> 8))
	step(byte(res.Mcast))
	if res.Dropped {
		step(1)
	}
	return h
}

// buildLoadgenPackets compiles AGG with NUM_SLOTS=pools and
// pregenerates each flow's packet stream: two-worker SwitchML rounds
// (first packet of a round initializes the slot and is dropped, the
// second completes it and multicasts the aggregate), with the version
// bit alternating per round — exactly the protocol's steady state.
func buildLoadgenPackets(cfg LoadgenConfig) (*bmv2.Switch, [][][]byte, error) {
	app := ByName("AGG")
	defines := map[string]uint64{}
	for k, v := range app.Defines {
		defines[k] = v
	}
	defines["NUM_SLOTS"] = uint64(cfg.Pools)
	defines["NUM_WORKERS"] = 2
	app = &App{Name: app.Name, NetCL: app.NetCL, Defines: defines,
		Devices: app.Devices, BaselineFile: app.BaselineFile}
	prog, specs, err := CompileApp(app, cfg.Target, 1)
	if err != nil {
		return nil, nil, err
	}
	spec := specs[1]
	slotSize := int(defines["SLOT_SIZE"])

	packets := make([][][]byte, cfg.Pools)
	vals := make([]uint64, slotSize)
	for p := 0; p < cfg.Pools; p++ {
		packets[p] = make([][]byte, cfg.Packets)
		for s := 0; s < cfg.Packets; s++ {
			round, half := s/2, s%2
			ver := uint64(round % 2)
			for i := range vals {
				vals[i] = uint64(p*1000+round+i) & 0xffffffff
			}
			msg, err := runtime.Pack(spec,
				runtime.Message{Src: uint16(10 + half), Dst: 100, Device: 1, Comp: 1}.Header(),
				[][]uint64{{ver}, {uint64(p)}, {uint64(p) + ver*uint64(cfg.Pools)},
					{1 << uint(half)}, {uint64(round)}, vals})
			if err != nil {
				return nil, nil, err
			}
			packets[p][s] = runtime.Frame(msg, uint64(10+half), 0)
		}
	}
	sw := bmv2.New(prog)
	if !sw.Compiled() {
		return nil, nil, fmt.Errorf("loadgen: AGG did not compile: %v", sw.CompileErr())
	}
	return sw, packets, nil
}

// RunLoadgen drives one load-generator run.
func RunLoadgen(cfg LoadgenConfig) (*LoadgenResult, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.Hosts <= 0 {
		cfg.Hosts = 4
	}
	if cfg.Pools <= 0 {
		cfg.Pools = 64
	}
	if cfg.Packets <= 0 {
		cfg.Packets = 128
	}
	sw, packets, err := buildLoadgenPackets(cfg)
	if err != nil {
		return nil, err
	}
	sh, err := bmv2.NewSharded(sw, bmv2.ShardedConfig{
		Shards: cfg.Shards, QueueDepth: cfg.QueueDepth, FlowKey: aggFlowKey,
		Burst: cfg.Burst,
	})
	if err != nil {
		return nil, err
	}
	defer sh.Close()

	// Per-flow state: the hash chain and histogram are written only by
	// the flow's shard goroutine (the shard-by-flow invariant makes the
	// unsynchronized writes safe); accepted[] only by the flow's host.
	hashes := make([]uint64, cfg.Pools)
	hists := make([]Hist, cfg.Pools)
	accepted := make([][]bool, cfg.Pools)
	for p := range accepted {
		accepted[p] = make([]bool, cfg.Packets)
	}

	burst := cfg.Burst
	if burst <= 0 || burst > bmv2.MaxBurst {
		burst = bmv2.MaxBurst
	}
	res := &LoadgenResult{
		Shards: cfg.Shards, Burst: burst, Hosts: cfg.Hosts, Pools: cfg.Pools,
		OfferedPPS: cfg.OfferedPPS,
	}
	var hostInterval time.Duration
	if cfg.OfferedPPS > 0 {
		hostInterval = time.Duration(float64(time.Second) * float64(cfg.Hosts) / cfg.OfferedPPS)
	}

	// The Window knob bounds in-flight packets across all hosts with a
	// shared FlightWindow: a slot is taken at submission and released by
	// the completion callback (or immediately when the packet sheds).
	fw := runtime.NewFlightWindow(cfg.Window, nil)

	var wg sync.WaitGroup
	var shed, submitted uint64
	var mu sync.Mutex // folds per-host totals
	start := time.Now()
	for h := 0; h < cfg.Hosts; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			var hostShed, hostSent uint64
			k := 0 // this host's packet index, for the open-loop schedule
			for s := 0; s < cfg.Packets; s++ {
				for p := h; p < cfg.Pools; p += cfg.Hosts {
					sched := time.Now()
					if hostInterval > 0 {
						sched = start.Add(time.Duration(k) * hostInterval)
						if d := time.Until(sched); d > 0 {
							time.Sleep(d)
						}
					}
					k++
					flow := p
					cb := func(r *bmv2.Result, err error) {
						hashes[flow] = loadHash(hashes[flow], r, err)
						hists[flow].Record(uint64(time.Since(sched)))
						fw.Release()
					}
					fw.Acquire()
					if cfg.OfferedPPS > 0 {
						// Open loop: a full queue sheds the packet.
						if sh.Submit(packets[p][s], cb) {
							accepted[p][s] = true
							hostSent++
						} else {
							hostShed++
							fw.Release() // the callback will never run
						}
					} else {
						// Closed loop: retry until the queue accepts.
						for !sh.Submit(packets[p][s], cb) {
							gort.Gosched()
						}
						accepted[p][s] = true
						hostSent++
					}
				}
			}
			mu.Lock()
			shed += hostShed
			submitted += hostSent
			mu.Unlock()
		}(h)
	}
	wg.Wait()
	sh.Drain()
	res.DurationNs = float64(time.Since(start))
	res.Submitted = submitted
	res.Shed = shed
	st := sh.Stats()
	res.Processed = st.Processed
	res.QueueFull = st.QueueFull
	if cfg.Window > 0 {
		res.PeakInFlight = fw.Peak()
	}
	if res.DurationNs > 0 {
		res.PPS = float64(res.Processed) / (res.DurationNs / 1e9)
	}

	var all Hist
	for p := range hists {
		all.Merge(&hists[p])
	}
	res.P50Ns = float64(all.Quantile(0.50))
	res.P90Ns = float64(all.Quantile(0.90))
	res.P99Ns = float64(all.Quantile(0.99))
	res.MaxNs = float64(all.Max())

	if cfg.Verify {
		ref, refPkts, err := buildLoadgenPackets(cfg)
		if err != nil {
			return nil, err
		}
		for p := 0; p < cfg.Pools; p++ {
			var want uint64
			for s := 0; s < cfg.Packets; s++ {
				if !accepted[p][s] {
					continue
				}
				r, err := ref.Process(refPkts[p][s], 0)
				want = loadHash(want, r, err)
			}
			res.VerifiedFlows++
			if want != hashes[p] {
				res.Mismatches++
			}
		}
	}
	return res, nil
}
