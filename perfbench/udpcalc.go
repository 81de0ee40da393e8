package main

// udp-calc: the host runtime over real sockets. A CALC host issues
// calls through one runtime.Channel (closed loop, sliding window) on
// one HostConn to a ServeDevice with one worker, over UDP loopback.

import (
	"fmt"
	"math/rand"
	gort "runtime"
	"time"

	"netcl/internal/bmv2"
	"netcl/internal/p4rt"
	"netcl/internal/runtime"
)

type calcSize struct{ window, calls, routes int }

func calcSizeFor(tiny bool) calcSize {
	if tiny {
		return calcSize{window: 8, calls: 256, routes: 32}
	}
	return calcSize{window: 16, calls: 4096, routes: 256}
}

const calcHost, calcDevice = 7, 1

// calcOp is one seeded CALC call and its expected result.
type calcOp struct{ op, a, b, want uint64 }

func calcOps(n int, seed int64) []calcOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]calcOp, n)
	for i := range ops {
		o := calcOp{op: uint64(1 + rng.Intn(5)), a: uint64(rng.Uint32()), b: uint64(rng.Uint32())}
		switch o.op {
		case 1:
			o.want = o.a + o.b
		case 2:
			o.want = o.a - o.b
		case 3:
			o.want = o.a & o.b
		case 4:
			o.want = o.a | o.b
		case 5:
			o.want = o.a ^ o.b
		}
		o.want &= 0xFFFFFFFF
		ops[i] = o
	}
	return ops
}

// calcRig is one set-up: device, host connection, channels.
type calcRig struct {
	comp     *compiled
	dev      *runtime.UDPDevice
	conn     *runtime.HostConn
	ch       *runtime.Channel
	replaySw *bmv2.Switch // the device's program, run in process
	setup    time.Duration
	commits  []float64 // µs per route-preload commit
	entries  int
}

func (r *calcRig) close() {
	r.ch.Close()
	r.conn.Close()
	r.dev.Close()
}

func buildCalc(size calcSize) (*calcRig, error) {
	start := time.Now()
	comp, err := compileApp("calc", calcDevice, nil)
	if err != nil {
		return nil, err
	}
	r := &calcRig{comp: comp}
	if r.dev, err = runtime.ServeDevice(runtime.DeviceConfig{
		ID: calcDevice, Addr: "127.0.0.1:0", Prog: comp.prog, Workers: 1,
	}); err != nil {
		return nil, err
	}
	if r.conn, err = runtime.Dial(runtime.DialConfig{
		ID: calcHost, Local: "127.0.0.1:0", Device: r.dev.Addr(),
	}); err != nil {
		r.dev.Close()
		return nil, err
	}
	if err := r.dev.SetNodeAddr(calcHost, r.conn.Addr()); err != nil {
		r.conn.Close()
		r.dev.Close()
		return nil, err
	}
	// The device learns the routes of a rack of other nodes, 16 per
	// commit (ids from 100, clear of the host's own entry).
	for lo := 100; lo < 100+size.routes; lo += 16 {
		b := fwdBatch(p4rt.NewWriteBatch(), lo, lo+15)
		t0 := time.Now()
		if _, err := r.dev.Write(b); err != nil {
			r.conn.Close()
			r.dev.Close()
			return nil, fmt.Errorf("route preload: %w", err)
		}
		r.commits = append(r.commits, since(t0)/1e3)
		r.entries += b.Len()
	}
	rel := runtime.ReliabilityConfig{Timeout: 20 * time.Millisecond, MaxRetries: 8}
	r.ch = r.conn.NewChannel(runtime.ChannelConfig{Window: size.window, Reliability: rel})
	r.setup = time.Since(start)
	return r, nil
}

// calcPass is one closed-loop pass's measurement.
type calcPass struct {
	wall      time.Duration
	calls     int
	failed    int
	processed uint64
	lat       samples // µs
}

// pass runs every op through the channel in a closed loop with at most
// `window` calls in flight: a new call is admitted only after the
// oldest completes (window 1 is stop-and-wait).
func (r *calcRig) pass(window int, ops []calcOp, sh *Shard) (*calcPass, error) {
	spec := r.comp.spec
	hdr := runtime.Message{Src: calcHost, Dst: calcHost, Device: calcDevice, Comp: 1}.Header()
	ch := r.ch
	type slot struct {
		p    *runtime.Pending
		i    int
		root int64
		t0   time.Time
	}
	ring := make([]slot, window)
	argv := [][]uint64{{0}, {0}, {0}, nil}
	got := []uint64{0}
	out := [][]uint64{nil, nil, nil, got}
	var buf []byte
	res := &calcPass{}
	complete := func(s *slot) error {
		t0 := time.Now()
		resp, err := s.p.Wait(0)
		t1 := time.Now()
		if err != nil {
			res.failed++
			return nil
		}
		_, err = runtime.UnpackInto(spec, resp, out)
		t2 := time.Now()
		if err != nil || got[0] != ops[s.i].want {
			res.failed++
		}
		res.lat = append(res.lat, float64(s.p.Latency().Nanoseconds())/1e3)
		if s.root != 0 {
			sh.Record("runtime.wait", s.root, int64(s.i), t0, t1)
			sh.Record("runtime.unpack", s.root, int64(s.i), t1, t2)
			sh.Put(s.root, "calc.call", 0, int64(s.i), s.t0, t2)
		}
		return nil
	}
	processed0 := r.dev.Stats().Processed
	start := time.Now()
	for i, o := range ops {
		s := &ring[i%window]
		if i >= window {
			if err := complete(s); err != nil {
				return nil, err
			}
		}
		traced := sh.Sample()
		t0 := time.Now()
		argv[0][0], argv[1][0], argv[2][0] = o.op, o.a, o.b
		msg, err := runtime.PackAppend(buf[:0], spec, hdr, argv)
		if err != nil {
			return nil, err
		}
		buf = msg
		t1 := time.Now()
		p, err := ch.CallAsync(msg) // admission copies msg
		if err != nil {
			return nil, fmt.Errorf("call %d: %w", i, err)
		}
		*s = slot{p: p, i: i}
		if traced {
			t2 := time.Now()
			s.root, s.t0 = sh.ID(), t0
			sh.Record("runtime.pack", s.root, int64(i), t0, t1)
			sh.Record("runtime.admit", s.root, int64(i), t1, t2)
		}
		res.calls++
	}
	for i := len(ops) - window; i < len(ops); i++ {
		if i >= 0 {
			if err := complete(&ring[i%window]); err != nil {
				return nil, err
			}
		}
	}
	res.wall = time.Since(start)
	res.processed = r.dev.Stats().Processed - processed0
	return res, nil
}

// replay runs the framed requests through a local switch of the same
// program (the device's per-packet cost without sockets): once timed
// as a whole, once timed per packet.
func (r *calcRig) replay(ops []calcOp) (nsPerPkt float64, lat samples, err error) {
	if r.replaySw == nil {
		if r.replaySw, err = newSwitch(r.comp.prog); err != nil {
			return 0, nil, err
		}
		if _, err := r.replaySw.Write(fwdBatch(p4rt.NewWriteBatch(), calcHost, calcHost)); err != nil {
			return 0, nil, err
		}
	}
	hdr := runtime.Message{Src: calcHost, Dst: calcHost, Device: calcDevice, Comp: 1}.Header()
	pkts := make([][]byte, len(ops))
	for i, o := range ops {
		msg, err := runtime.PackAppend(nil, r.comp.spec, hdr, [][]uint64{{o.op}, {o.a}, {o.b}, nil})
		if err != nil {
			return 0, nil, err
		}
		pkts[i] = runtime.Frame(msg, calcHost, 0)
	}
	var res bmv2.Result
	t0 := time.Now()
	for _, pkt := range pkts {
		if err := r.replaySw.ProcessInto(pkt, calcHost, &res); err != nil {
			return 0, nil, err
		}
	}
	nsPerPkt = since(t0) / float64(len(pkts))
	for _, pkt := range pkts {
		t := time.Now()
		if err := r.replaySw.ProcessInto(pkt, calcHost, &res); err != nil {
			return 0, nil, err
		}
		lat = append(lat, since(t))
	}
	return nsPerPkt, lat, nil
}

func runUDPCalc(cfg runCfg) (*Report, error) {
	size := calcSizeFor(cfg.tiny)
	rep := newReport()
	ops := calcOps(size.calls, cfg.seed)
	setup := func() (*calcRig, error) {
		// Collect on both sides: a set-up pays for no earlier phase's
		// garbage and leaves none of its own to a measured phase.
		gort.GC()
		rig, err := buildCalc(size)
		if err != nil {
			return nil, err
		}
		gort.GC()
		rep.add("setup_s", "s", rig.setup.Seconds())
		rep.pct("commit_p50_us", "commit_p99_us", "us", rig.commits)
		var total float64
		for _, us := range rig.commits {
			total += us
		}
		rep.add("ctrl_ops_per_s", "1/s", float64(rig.entries)/(total/1e6))
		addCompileTimes(rep, "calc", rig.comp)
		return rig, nil
	}
	// The first set-up runs cold; its samples are dropped.
	cold, err := setup()
	if err != nil {
		return nil, err
	}
	cold.close()
	rep.drop("setup_s", "ctrl_ops_per_s", "commit_p50_us", "commit_p99_us")
	rig, err := setup()
	if err != nil {
		return nil, err
	}
	rep.set("heap_mb", "MB", float64(liveHeap())/(1<<20))
	var retransmits, duplicates uint64
	closeRig := func() {
		if rig == nil {
			return
		}
		st := rig.ch.Stats()
		retransmits += st.Retransmits
		duplicates += st.Duplicates
		rig.close()
		rig = nil
	}
	defer closeRig()

	record := func(p *calcPass) {
		rep.ops(int64(p.calls), int64(p.failed))
	}
	var gc gcMeter
	err = timeBox(cfg.budget, 3, func(i int) error {
		// A fresh set-up per iteration replaces the rig under test: set-up
		// samples spread over the measuring window, and one host
		// connection is open at a time.
		closeRig()
		if rig, err = setup(); err != nil {
			return err
		}
		gc.start()
		defer gc.stop()
		p, err := rig.pass(1, ops[:size.calls/4], nil)
		if err != nil {
			return err
		}
		record(p)
		rep.add("pkts_per_s_serial", "1/s", float64(p.processed)/p.wall.Seconds())
		// The first windowed pass after stop-and-wait runs slow (the
		// socket goroutines were parked); it is not recorded.
		if p, err = rig.pass(size.window, ops, nil); err != nil {
			return err
		}
		record(p)
		for r := 0; r < 3; r++ {
			p, err := rig.pass(size.window, ops, nil)
			if err != nil {
				return err
			}
			record(p)
			rep.add("calls_per_s", "1/s", float64(p.calls)/p.wall.Seconds())
			rep.add("pkts_per_s", "1/s", float64(p.processed)/p.wall.Seconds())
			rep.add("sim_end_us", "us", float64(p.wall.Nanoseconds())/1e3)
			rep.pct("call_p50_us", "call_p99_us", "us", p.lat)
		}
		if cfg.tr != nil {
			p, err := rig.pass(size.window, ops, cfg.tr.Shard())
			if err != nil {
				return err
			}
			record(p)
			rep.add("trace.pkts_per_s", "1/s", float64(p.processed)/p.wall.Seconds())
		}
		ns, l, err := rig.replay(ops[:size.calls/4])
		if err != nil {
			return err
		}
		rep.add("runtime.device_ns", "ns", ns)
		rep.add("bmv2.ns_per_pkt.calc", "ns", ns)
		rep.pct("dp_p50_ns", "dp_p99_ns", "ns", l)
		return nil
	})
	if err != nil {
		return nil, err
	}
	gc.report(rep)
	closeRig()
	rep.set("runtime.retransmits", "count", float64(retransmits))
	rep.set("runtime.duplicates", "count", float64(duplicates))

	if cfg.tr != nil {
		st := cfg.tr.Stats()
		rep.set("runtime.pack_ns", "ns", median(st["runtime.pack"]))
		rep.set("runtime.unpack_ns", "ns", median(st["runtime.unpack"]))
		rep.set("runtime.admit_ns", "ns", median(st["runtime.admit"]))
		rep.set("trace.overhead_pct", "%", 100*(rep.Metrics["pkts_per_s"].Value/rep.Metrics["trace.pkts_per_s"].Value-1))
	}
	return rep, nil
}
