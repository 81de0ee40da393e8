package main

// agg-chain: the simulator-scale job. A chain of AGG switches, each
// aggregating rounds from thousands of locally attached sender pairs
// (SwitchML slot protocol, two workers per slot) and multicasting every
// completed slot to two collector hosts. Every 64th pair aggregates at
// the next switch of the chain, so a partitioned run carries real
// cross-partition traffic. The benchmark's own host callbacks pack and
// unpack every message; the same job runs on the default unpartitioned
// network and at SetPartitions(2).

import (
	"fmt"
	"math/rand"
	gort "runtime"
	"sort"
	"time"

	"netcl/internal/bmv2"
	"netcl/internal/netsim"
	"netcl/internal/p4"
	"netcl/internal/runtime"
)

type aggSize struct {
	hosts, devices, rounds, remoteEvery int
}

func aggSizeFor(tiny bool) aggSize {
	if tiny {
		return aggSize{hosts: 2000, devices: 4, rounds: 2, remoteEvery: 8}
	}
	return aggSize{hosts: 100_000, devices: 16, rounds: 2, remoteEvery: 64}
}

const aggSlotSize = 4

// aggInputs are the seeded parameters of one job: a constant shift of
// every send time and of every host link's latency (constant, so no two
// packets ever tie on a shared queue and the event order stays
// independent of the partition count), and the payload base.
type aggInputs struct {
	startShift netsim.Time
	hostLatNs  netsim.Time
	base       uint64
}

func aggInputsFor(seed int64) aggInputs {
	rng := rand.New(rand.NewSource(seed))
	return aggInputs{
		startShift: netsim.Time(rng.Intn(4096)) * 0.25,
		hostLatNs:  netsim.Microsecond + netsim.Time(rng.Intn(32)),
		base:       uint64(rng.Uint32()),
	}
}

// senderMeta is one host's role, indexed by host slab index. half
// 0xFF marks a collector.
type senderMeta struct {
	slot    uint16
	target  uint16 // target device id
	dst     uint16 // a collector at the target device
	port    uint16 // device port the host is attached to
	half    uint8
	homeDev uint8
}

// sendScratch is one device's packing state: timer callbacks of the
// hosts on one device run in that device's partition, so each scratch
// has one user at a time.
type sendScratch struct {
	buf                             []byte
	argv                            [][]uint64
	ver, slot, agg, mask, exp, vals []uint64
}

// collector verifies the results one collector host receives. Only
// collector 0 of each device records latencies (both get every result).
type collector struct {
	dev        int
	completed  uint64
	mismatches uint64
	recordLat  bool
	lat        []float64 // simulated µs from the later contribution to the result
	exp, vals  []uint64
	argv       [][]uint64
}

// chain is one built agg-chain network.
type chain struct {
	size     aggSize
	in       aggInputs
	n        *netsim.Network
	devs     []*netsim.Device
	progs    []*compiled
	spec     *runtime.MessageSpec
	meta     []senderMeta
	next     []uint16
	start    netsim.Time // simulated time the running trial started
	pairOf   []int32     // device*numSlots+slot -> host index of the pair's half 0
	colls    []*collector
	scratch  []sendScratch
	shards   []*Shard // per device; nil entries when untraced
	pairs    int
	numSlots int
	senders  int

	setup        time.Duration // compile + build, heap probes excluded
	bytesPerHost float64
}

func (c *chain) startOffset(i int) netsim.Time {
	return 100*netsim.Nanosecond + c.in.startShift + netsim.Time(float64(i)*0.125)
}

func (c *chain) interval(i int) netsim.Time {
	return 5*netsim.Microsecond + netsim.Time(float64(i%1009)*0.125)
}

// sendTime is when host i sends round r, counted from the trial start.
func (c *chain) sendTime(i int, r uint64) netsim.Time {
	return c.startOffset(i) + netsim.Time(r)*c.interval(i)
}

// buildChain compiles the AGG program for every device and builds the
// network. k > 0 arms SetPartitions(k); 0 keeps the default regime.
// probeHeap measures the per-host heap cost (outside the set-up time).
func buildChain(size aggSize, in aggInputs, k int, traceHash, probeHeap bool) (*chain, error) {
	start := time.Now()
	c := &chain{size: size, in: in}
	devices := size.devices
	hostsPerDev := size.hosts / devices
	c.pairs = (hostsPerDev - 2) / 2
	remoteIncoming := (c.pairs + size.remoteEvery - 1) / size.remoteEvery
	c.numSlots = c.pairs + remoteIncoming
	defines := map[string]uint64{"NUM_SLOTS": uint64(c.numSlots), "SLOT_SIZE": aggSlotSize, "NUM_WORKERS": 2}
	for dv := 0; dv < devices; dv++ {
		comp, err := compileApp("agg", uint16(dv+1), defines)
		if err != nil {
			return nil, err
		}
		c.progs = append(c.progs, comp)
	}
	c.spec = c.progs[0].spec

	n := netsim.NewNetwork()
	c.n = n
	ids := make([]uint16, devices)
	for dv := range ids {
		ids[dv] = uint16(dv + 1)
	}
	topo, err := netsim.BuildChain(n, netsim.ChainSpec{
		IDs:  ids,
		Prog: func(i int, id uint16) *p4.Program { return c.progs[i].prog },
		Link: netsim.LinkClass{LatencyNs: 2 * netsim.Microsecond},
	})
	if err != nil {
		return nil, err
	}
	c.devs = topo.Tiers[0]
	if err := topo.InstallRoutes(netsim.RouteOptions{}); err != nil {
		return nil, err
	}

	total := devices * (2 + 2*c.pairs)
	c.meta = make([]senderMeta, 0, total)
	c.next = make([]uint16, total)
	c.pairOf = make([]int32, devices*c.numSlots)
	var heapBefore uint64
	var probe time.Duration
	if probeHeap {
		p := time.Now()
		heapBefore = liveHeap()
		probe += time.Since(p)
	}
	collID := func(dv, i int) uint16 { return uint16(0xF000 + dv*2 + i) }
	for dv := 0; dv < devices; dv++ {
		for i := 0; i < 2; i++ {
			col := n.AddHost(collID(dv, i))
			// Latency-only collector links: the modelled congestion of
			// every completed slot serializing onto two links would
			// dominate both the working set and the completion time.
			l := n.Connect(col, c.devs[dv], 3+i)
			l.BandwidthGbps = 0
			l.LatencyNs = in.hostLatNs
			cs := &collector{dev: dv, recordLat: i == 0, exp: make([]uint64, 1), vals: make([]uint64, aggSlotSize)}
			cs.argv = [][]uint64{nil, make([]uint64, 1), nil, nil, cs.exp, cs.vals}
			c.colls = append(c.colls, cs)
			col.SetReceive(c.receiver(cs))
			c.meta = append(c.meta, senderMeta{half: 0xFF, homeDev: uint8(dv)})
		}
		c.devs[dv].SetMulticastGroup(42, []int{3, 4})
		for p := 0; p < c.pairs; p++ {
			target, slot := dv, p
			if p%size.remoteEvery == 0 {
				target = (dv + 1) % devices
				slot = c.pairs + p/size.remoteEvery
			}
			c.pairOf[target*c.numSlots+slot] = int32(len(c.meta))
			for half := 0; half < 2; half++ {
				idx := len(c.meta)
				h := n.AddHost(uint16(idx % 0xF000))
				n.Connect(h, c.devs[dv], 5+2*p+half).LatencyNs = in.hostLatNs
				c.meta = append(c.meta, senderMeta{
					slot: uint16(slot), target: uint16(target + 1), dst: collID(target, 0),
					port: uint16(5 + 2*p + half), half: uint8(half), homeDev: uint8(dv),
				})
			}
		}
	}
	c.senders = total - 2*devices
	c.scratch = make([]sendScratch, devices)
	for dv := range c.scratch {
		sc := &c.scratch[dv]
		sc.buf = make([]byte, 0, c.spec.Size())
		sc.ver, sc.slot, sc.agg = make([]uint64, 1), make([]uint64, 1), make([]uint64, 1)
		sc.mask, sc.exp = make([]uint64, 1), make([]uint64, 1)
		sc.vals = make([]uint64, aggSlotSize)
		sc.argv = [][]uint64{sc.ver, sc.slot, sc.agg, sc.mask, sc.exp, sc.vals}
	}
	c.shards = make([]*Shard, devices)
	n.OnTimer(c.onTimer)
	if traceHash {
		n.EnableTrace()
	}
	if k > 0 {
		if err := n.SetPartitions(k); err != nil {
			return nil, err
		}
	}
	if probeHeap {
		p := time.Now()
		c.bytesPerHost = float64(liveHeap()-heapBefore) / float64(total)
		probe += time.Since(p)
	}
	// Prewarm packet buffers to the in-flight working set (bounded by
	// send rate times flight time, not by the host count).
	warm := c.senders + devices*c.pairs + 1024
	if warm > 98304 {
		warm = 98304
	}
	n.PrewarmBuffers(warm, runtime.FrameOverhead+c.spec.Size()+16)
	c.setup = time.Since(start) - probe
	return c, nil
}

// onTimer is every sender's send: pack the next round's contribution
// and hand it to the network.
func (c *chain) onTimer(h *netsim.Host) {
	i := h.Index()
	m := &c.meta[i]
	if m.half == 0xFF || int(c.next[i]) >= c.size.rounds {
		return
	}
	sh := c.shards[m.homeDev]
	traced := sh.Sample()
	var t0 time.Time
	if traced {
		t0 = time.Now()
	}
	r := uint64(c.next[i])
	c.next[i]++
	sc := &c.scratch[m.homeDev]
	ver := r & 1
	sc.ver[0] = ver
	sc.slot[0] = uint64(m.slot)
	sc.agg[0] = uint64(m.slot) + ver*uint64(c.numSlots)
	sc.mask[0] = 1 << m.half
	sc.exp[0] = r & 0xFFFFFFFF
	for j := range sc.vals {
		sc.vals[j] = (r + uint64(j) + uint64(m.half) + c.in.base) & 0xFFFFFFFF
	}
	hdr := runtime.Message{Src: h.ID, Dst: m.dst, Device: m.target, Comp: 1}.Header()
	var tp time.Time
	if traced {
		tp = time.Now()
	}
	msg, err := runtime.PackAppend(sc.buf[:0], c.spec, hdr, sc.argv)
	if err != nil {
		return // surfaces as a missing completion
	}
	var ts time.Time
	if traced {
		ts = time.Now()
	}
	sc.buf = msg[:0]
	h.Send(msg)
	if int(c.next[i]) < c.size.rounds {
		h.StartTimer(c.interval(i))
	}
	if traced {
		end := time.Now()
		req := int64(i)<<20 | int64(r&0xFFFFF)
		root := sh.Record("agg.send", 0, req, t0, end)
		sh.Record("runtime.pack", root, req, tp, ts)
		sh.Record("netsim.send", root, req, ts, end)
	}
}

// receiver verifies one collector's results.
func (c *chain) receiver(cs *collector) func(h *netsim.Host, msg []byte) {
	return func(h *netsim.Host, msg []byte) {
		sh := c.shards[cs.dev]
		traced := sh.Sample()
		var t0, tu time.Time
		if traced {
			t0 = time.Now()
		}
		_, err := runtime.UnpackInto(c.spec, msg, cs.argv)
		if traced {
			tu = time.Now()
		}
		if err != nil {
			cs.mismatches++
			return
		}
		cs.completed++
		r := cs.exp[0]
		for j := 0; j < aggSlotSize; j++ {
			if cs.vals[j] != (2*(r+uint64(j)+c.in.base)+1)&0xFFFFFFFF {
				cs.mismatches++
				break
			}
		}
		if cs.recordLat {
			slot := int(cs.argv[1][0])
			if slot < c.numSlots {
				// The result leaves after the later half's send.
				a := int(c.pairOf[cs.dev*c.numSlots+slot])
				sent := max(c.sendTime(a, r), c.sendTime(a+1, r))
				cs.lat = append(cs.lat, float64(h.Now()-c.start-sent)/1e3)
			}
		}
		if traced {
			end := time.Now()
			root := sh.Record("agg.recv", 0, int64(h.Index()), t0, end)
			sh.Record("runtime.unpack", root, int64(h.Index()), t0, tu)
		}
	}
}

// aggTrial is what one run of the job measured.
type aggTrial struct {
	wall       time.Duration
	simEndUs   float64
	events     uint64
	mallocs    uint64
	processed  uint64
	completed  uint64
	expected   uint64
	mismatches uint64
	lat        []float64
}

// trial runs the job (every sender sends size.rounds rounds) to
// completion, once per built network. With tr non-nil the host
// callbacks record spans.
func (c *chain) trial(tr *Tracer) (*aggTrial, error) {
	for dv := range c.shards {
		c.shards[dv] = tr.Shard()
	}
	for _, cs := range c.colls {
		cs.completed, cs.mismatches, cs.lat = 0, 0, cs.lat[:0]
	}
	for i := range c.next {
		c.next[i] = 0
	}
	var processed0 uint64
	for _, d := range c.devs {
		processed0 += d.Processed
	}
	gort0 := readGC()
	events0 := c.n.TotalProcessed()
	sim0 := c.n.Now()
	c.start = sim0
	start := time.Now()
	for i := range c.meta {
		if c.meta[i].half != 0xFF {
			c.n.HostAt(i).StartTimer(c.startOffset(i))
		}
	}
	if err := c.n.RunAll(); err != nil {
		return nil, err
	}
	t := &aggTrial{wall: time.Since(start)}
	t.mallocs = readGC().mallocs - gort0.mallocs
	t.events = c.n.TotalProcessed() - events0
	t.simEndUs = float64(c.n.Now()-sim0) / 1e3
	for _, d := range c.devs {
		t.processed += d.Processed
	}
	t.processed -= processed0
	for _, cs := range c.colls {
		t.completed += cs.completed
		t.mismatches += cs.mismatches
		t.lat = append(t.lat, cs.lat...)
	}
	t.expected = 2 * uint64(c.pairs*c.size.devices) * uint64(c.size.rounds)
	for dv := range c.shards {
		c.shards[dv] = nil
	}
	return t, nil
}

// replayPackets rebuilds, in arrival order, the framed packets device
// 0's hosts send in one job, with their ingress ports: the input for
// timing the AGG data plane outside the simulator.
func (c *chain) replayPackets(round0 uint64) ([][]byte, []int, error) {
	type send struct {
		at    netsim.Time
		i     int
		round int
	}
	var sends []send
	for i, m := range c.meta {
		if m.half == 0xFF || m.homeDev != 0 {
			continue
		}
		for r := 0; r < c.size.rounds; r++ {
			sends = append(sends, send{c.sendTime(i, uint64(r)), i, r})
		}
	}
	sort.Slice(sends, func(a, b int) bool { return sends[a].at < sends[b].at })
	pkts := make([][]byte, 0, len(sends))
	ports := make([]int, 0, len(sends))
	argv := [][]uint64{{0}, {0}, {0}, {0}, {0}, make([]uint64, aggSlotSize)}
	for _, s := range sends {
		m := c.meta[s.i]
		r := round0 + uint64(s.round)
		ver := r & 1
		argv[0][0], argv[1][0] = ver, uint64(m.slot)
		argv[2][0] = uint64(m.slot) + ver*uint64(c.numSlots)
		argv[3][0], argv[4][0] = 1<<m.half, r&0xFFFFFFFF
		for j := range argv[5] {
			argv[5][j] = (r + uint64(j) + uint64(m.half) + c.in.base) & 0xFFFFFFFF
		}
		id := uint16(s.i % 0xF000)
		hdr := runtime.Message{Src: id, Dst: m.dst, Device: m.target, Comp: 1}.Header()
		msg, err := runtime.PackAppend(nil, c.spec, hdr, argv)
		if err != nil {
			return nil, nil, err
		}
		pkts = append(pkts, runtime.Frame(msg, uint64(id), 0))
		ports = append(ports, int(m.port))
	}
	return pkts, ports, nil
}

// installRoutes builds a host-less chain of progs and times
// InstallRoutes on it, returning the duration and the entries written.
func installRoutes(progs []*compiled) (time.Duration, int, error) {
	n := netsim.NewNetwork()
	ids := make([]uint16, len(progs))
	for i := range ids {
		ids[i] = uint16(i + 1)
	}
	topo, err := netsim.BuildChain(n, netsim.ChainSpec{
		IDs:  ids,
		Prog: func(i int, id uint16) *p4.Program { return progs[i].prog },
		Link: netsim.LinkClass{LatencyNs: 2 * netsim.Microsecond},
	})
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	if err := topo.InstallRoutes(netsim.RouteOptions{}); err != nil {
		return 0, 0, err
	}
	d := time.Since(t0)
	entries := 0
	for _, dev := range topo.Tiers[0] {
		entries += len(dev.SW.Entries("netcl_fwd"))
	}
	return d, entries, nil
}

// replayer times device 0's share of the job through ProcessInto on
// switches of its own, outside the simulator: the full program and the
// parse-only one. Each pass replays the next rounds of the protocol.
type replayer struct {
	c         *chain
	sw, parse *bmv2.Switch
	next      uint64
	res       bmv2.Result
	nsPerPkt  []float64
	parseNs   []float64
	mallocs   uint64
	timedPkts uint64
}

func newReplayer(c *chain) (*replayer, error) {
	sw, err := newSwitch(c.progs[0].prog)
	if err != nil {
		return nil, err
	}
	parse, err := newSwitch(parseOnly(c.progs[0].prog))
	if err != nil {
		return nil, err
	}
	return &replayer{c: c, sw: sw, parse: parse}, nil
}

// pass replays one job three times: timed as a whole, timed per
// packet (the returned latencies), and through the parse-only program.
func (r *replayer) pass() (lat samples, err error) {
	for mode := 0; mode < 3; mode++ {
		pkts, ports, err := r.c.replayPackets(r.next)
		if err != nil {
			return nil, err
		}
		r.next += uint64(r.c.size.rounds)
		switch mode {
		case 0:
			g0 := readGC()
			start := time.Now()
			for i, pkt := range pkts {
				if err := r.sw.ProcessInto(pkt, ports[i], &r.res); err != nil {
					return nil, fmt.Errorf("replay: %w", err)
				}
			}
			r.nsPerPkt = append(r.nsPerPkt, since(start)/float64(len(pkts)))
			r.mallocs += readGC().mallocs - g0.mallocs
			r.timedPkts += uint64(len(pkts))
		case 1:
			for i, pkt := range pkts {
				t0 := time.Now()
				if err := r.sw.ProcessInto(pkt, ports[i], &r.res); err != nil {
					return nil, fmt.Errorf("replay: %w", err)
				}
				lat = append(lat, since(t0))
			}
		case 2:
			start := time.Now()
			for i, pkt := range pkts {
				_ = r.parse.ProcessInto(pkt, ports[i], &r.res) // drops are the expected outcome
			}
			r.parseNs = append(r.parseNs, since(start)/float64(len(pkts)))
		}
	}
	return lat, nil
}

func runAggChain(cfg runCfg) (*Report, error) {
	size := aggSizeFor(cfg.tiny)
	in := aggInputsFor(cfg.seed)
	rep := newReport()
	rep.Notes["hosts"] = size.hosts
	rep.Notes["devices"] = size.devices

	build := func(k int, traceHash, probeHeap bool) (*chain, error) {
		// Collect on both sides: a set-up pays for no earlier phase's
		// garbage and leaves none of its own to a measured phase.
		gort.GC()
		c, err := buildChain(size, in, k, traceHash, probeHeap)
		if err != nil {
			return nil, err
		}
		gort.GC()
		rep.add("setup_s", "s", c.setup.Seconds())
		for _, p := range c.progs {
			addCompileTimes(rep, "agg", p)
		}
		return c, nil
	}
	checkTrial := func(regime string, t *aggTrial) {
		rep.ops(int64(t.expected), int64(t.mismatches))
		rep.check(regime+" completed", t.completed == t.expected && t.mismatches == 0,
			"%d of %d results, %d mismatches", t.completed, t.expected, t.mismatches)
	}

	// Check pass: the partitioned run must replay the serial one event
	// for event (per-host delivery hash chains). It also warms the
	// process up, so the first measured trial is not the slow one.
	var hashes [2]uint64
	for i, k := range []int{0, 2} {
		c, err := build(k, true, false)
		if err != nil {
			return nil, err
		}
		t, err := c.trial(nil)
		if err != nil {
			return nil, err
		}
		checkTrial(fmt.Sprintf("check k=%d", k), t)
		hashes[i] = c.n.TraceHash()
	}
	rep.check("k=2 trace hash equals serial", hashes[0] == hashes[1], "serial %#x, k=2 %#x", hashes[0], hashes[1])
	// Memory after set-up, on a warm process: one-time allocations of
	// the first build are not counted, so the figure repeats.
	last, err := build(0, false, true)
	if err != nil {
		return nil, err
	}
	rep.set("heap_mb", "MB", float64(liveHeap())/(1<<20))
	rep.set("netsim.bytes_per_host", "bytes", last.bytesPerHost)
	rp, err := newReplayer(last)
	if err != nil {
		return nil, err
	}
	// Discard the set-up samples so far: the first ran cold.
	rep.drop("setup_s")

	hostSends := float64(last.senders * size.rounds)
	calls := float64(last.pairs * size.devices * size.rounds)
	var lat samples
	var tracedSerial []*aggTrial
	var regfile uint64
	var peakQueue, bufferPeak int
	var gc gcMeter
	// Every iteration builds fresh networks, so set-up samples spread
	// over the measuring window like every other metric.
	err = timeBox(cfg.budget, 3, func(int) error {
		type step struct {
			k      int
			traced bool
		}
		// Set-up alone, twice more per iteration: it is short next to a
		// trial, so extra samples steady its median cheaply.
		for j := 0; j < 2; j++ {
			if _, err := build(0, false, false); err != nil {
				return err
			}
		}
		steps := []step{{2, false}, {0, false}}
		if cfg.tr != nil {
			steps = append(steps, step{2, true}, step{0, true})
		}
		for _, s := range steps {
			c, err := build(s.k, false, false)
			if err != nil {
				return err
			}
			var tr *Tracer
			if s.traced {
				tr = cfg.tr
			}
			gc.start()
			t, err := c.trial(tr)
			if err != nil {
				return err
			}
			gc.stop()
			checkTrial("trial", t)
			pps := hostSends / t.wall.Seconds()
			switch {
			case s.k == 2 && !s.traced:
				rep.add("pkts_per_s", "1/s", pps)
				rep.add("calls_per_s", "1/s", calls/t.wall.Seconds())
				rep.add("sim_end_us", "us", t.simEndUs)
				rep.add("netsim.allocs_per_event_k2", "count", float64(t.mallocs)/float64(t.events))
				lat = t.lat
			case s.k == 2:
				rep.add("trace.pkts_per_s", "1/s", pps)
			case !s.traced:
				rep.add("pkts_per_s_serial", "1/s", pps)
				rep.add("netsim.events", "count", float64(t.events))
				rep.add("netsim.events_per_s", "1/s", float64(t.events)/t.wall.Seconds())
				rep.add("netsim.allocs_per_event", "count", float64(t.mallocs)/float64(t.events))
				peakQueue, bufferPeak = c.n.TotalPeakQueue(), c.n.BufferPeak()
				regfile = 0
				for _, d := range c.devs {
					_, a := d.SW.RegisterFileBytes()
					regfile += a
				}
			default:
				tracedSerial = append(tracedSerial, t)
			}
		}
		// Route installation alone, on host-less chains of the same
		// programs, in trials of 10 calls: the slow quartile over trials
		// of each trial's tail moves less with one preempted call than
		// the tail of all calls pooled. The collection first settles the
		// job trials' garbage, which is not this phase's. Both this phase
		// and the replay below are short next to a job, so each gives
		// several trials per iteration.
		gort.GC()
		for trial := 0; trial < 16; trial++ {
			var installs samples
			for j := 0; j < 10; j++ {
				d, entries, err := installRoutes(last.progs)
				if err != nil {
					return err
				}
				installs = append(installs, float64(d.Nanoseconds())/1e3)
				rep.add("ctrl_ops_per_s", "1/s", float64(entries)/d.Seconds())
			}
			rep.pct("commit_p50_us", "commit_p99_us", "us", installs)
		}
		for trial := 0; trial < 4; trial++ {
			dp, err := rp.pass()
			if err != nil {
				return err
			}
			rep.pct("dp_p50_ns", "dp_p99_ns", "ns", dp)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	gc.report(rep)
	rep.set("call_p50_us", "us", lat.q(0.5))
	rep.set("call_p99_us", "us", lat.q(0.99))
	rep.set("netsim.peak_queue", "count", float64(peakQueue))
	rep.set("netsim.buffer_peak", "count", float64(bufferPeak))
	rep.set("netsim.k2_speedup", "x", rep.Metrics["pkts_per_s"].Value/rep.Metrics["pkts_per_s_serial"].Value)
	rep.set("bmv2.regfile_bytes", "bytes", float64(regfile))
	rep.add("bmv2.ns_per_pkt.agg", "ns", rp.nsPerPkt...)
	rep.add("bmv2.parse_ns_per_pkt.agg", "ns", rp.parseNs...)
	rep.set("bmv2.allocs_per_pkt", "count", float64(rp.mallocs)/float64(rp.timedPkts))

	if cfg.tr != nil {
		st := cfg.tr.Stats()
		rep.add("runtime.pack_ns", "ns", median(st["runtime.pack"]))
		rep.add("runtime.unpack_ns", "ns", median(st["runtime.unpack"]))
		// netsim self time: the traced serial run's wall time minus the
		// host callbacks (sampled mean × count) minus device time
		// (replayed ns per packet × packets the devices processed).
		sendNs, recvNs := mean(st["agg.send"]), mean(st["agg.recv"])
		dev := rep.Metrics["bmv2.ns_per_pkt.agg"].Value
		for _, t := range tracedSerial {
			cb := (hostSends*sendNs + 2*calls*recvNs) / 1e9
			rep.add("netsim.self_s", "s", t.wall.Seconds()-cb-float64(t.processed)*dev/1e9)
		}
		rep.set("trace.overhead_pct", "%", 100*(rep.Metrics["pkts_per_s"].Value/rep.Metrics["trace.pkts_per_s"].Value-1))
	}
	return rep, nil
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return median(nil)
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
