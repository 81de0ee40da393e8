package main

// ctrl-storm: the write path next to the read path. One switch holds a
// 100k-entry exact table and a ~1k-prefix LPM route table. One
// controller connection over p4rt TCP commits batches back to back
// (mostly exact inserts/deletes, a few route changes per batch) while
// one goroutine drives packets through the same switch.

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	gort "runtime"
	"sort"
	"time"

	"netcl/internal/bmv2"
	"netcl/internal/p4"
	"netcl/internal/p4rt"
)

type ctrlSize struct {
	entries, routes, churnKeys, churnRoutes int
	exactPerBatch, routesPerBatch, batches  int // per storm round
	preloadBatch, quietPkts                 int
}

func ctrlSizeFor(tiny bool) ctrlSize {
	if tiny {
		return ctrlSize{entries: 2000, routes: 64, churnKeys: 256, churnRoutes: 16,
			exactPerBatch: 16, routesPerBatch: 1, batches: 8, preloadBatch: 512, quietPkts: 2000}
	}
	return ctrlSize{entries: 100_000, routes: 1024, churnKeys: 8192, churnRoutes: 128,
		exactPerBatch: 64, routesPerBatch: 2, batches: 48, preloadBatch: 4096, quietPkts: 120_000}
}

const ctrlMiss = 0xFFFFFFFF

// ctrlProg: an exact table on key k writes out, an LPM table on dip
// writes hop; every packet leaves on port 1.
func ctrlProg() *p4.Program {
	pp := &p4.Program{Name: "storm", Target: p4.TargetTNA}
	pp.Headers = []*p4.HeaderDecl{{Name: "h", Fields: []*p4.Field{
		{Name: "k", Bits: 32}, {Name: "dip", Bits: 32}, {Name: "out", Bits: 32}, {Name: "hop", Bits: 8},
	}}}
	pp.Metadata = []*p4.Field{
		{Name: "egress_port", Bits: 16}, {Name: "mcast_grp", Bits: 16}, {Name: "drop_flag", Bits: 1},
	}
	pp.Parser = &p4.Parser{Name: "P", States: []*p4.ParserState{
		{Name: "start", Extracts: []string{"h"}, Next: "accept"},
	}}
	ctl := &p4.Control{Name: "In"}
	ctl.Actions = []*p4.ActionDecl{
		{Name: "set_out", Params: []*p4.Field{{Name: "v", Bits: 32}},
			Body: []p4.Stmt{&p4.Assign{LHS: p4.FR("hdr", "h", "out"), RHS: p4.FR("v")}}},
		{Name: "miss",
			Body: []p4.Stmt{&p4.Assign{LHS: p4.FR("hdr", "h", "out"), RHS: &p4.IntLit{Val: ctrlMiss, Bits: 32}}}},
		{Name: "set_hop", Params: []*p4.Field{{Name: "v", Bits: 8}},
			Body: []p4.Stmt{&p4.Assign{LHS: p4.FR("hdr", "h", "hop"), RHS: p4.FR("v")}}},
		{Name: "no_route"},
	}
	ctl.Tables = []*p4.Table{
		{Name: "fwd", Keys: []*p4.TableKey{{Expr: p4.FR("hdr", "h", "k"), Match: p4.MatchExact}},
			Actions: []string{"set_out", "miss"}, Default: &p4.ActionCall{Name: "miss"}},
		{Name: "route", Keys: []*p4.TableKey{{Expr: p4.FR("hdr", "h", "dip"), Match: p4.MatchLPM}},
			Actions: []string{"set_hop", "no_route"}, Default: &p4.ActionCall{Name: "no_route"}},
	}
	ctl.Apply = []p4.Stmt{
		&p4.ApplyTable{Table: "fwd"},
		&p4.ApplyTable{Table: "route"},
		&p4.Assign{LHS: p4.FR("meta", "egress_port"), RHS: &p4.IntLit{Val: 1, Bits: 16}},
	}
	pp.Ingress = ctl
	return pp
}

type prefix struct {
	val uint64
	len int
}

// storm is one set-up: the switch, its p4rt server and client, and
// the expected table contents.
type storm struct {
	size    ctrlSize
	rng     *rand.Rand
	mix     uint64
	sw      *bmv2.Switch
	twin    *bmv2.Switch // traced runs: the same batches applied directly
	srv     *p4rt.Server
	cl      *p4rt.TCPClient
	base    []prefix
	churn   []prefix
	keyIn   []bool // churn key i (key entries+i) installed
	routeIn []bool
	pkts    [][]byte
	setup   time.Duration
}

func (s *storm) exactEntry(key uint64) *p4.Entry {
	return &p4.Entry{
		Keys:   []p4.KeyValue{{Value: key, PrefixLen: -1}},
		Action: &p4.ActionCall{Name: "set_out", Args: []uint64{(key ^ s.mix) & 0xFFFFFFFF}},
	}
}

func routeEntry(p prefix, hop int) *p4.Entry {
	return &p4.Entry{
		Keys:   []p4.KeyValue{{Value: p.val, PrefixLen: p.len}},
		Action: &p4.ActionCall{Name: "set_hop", Args: []uint64{uint64(1 + hop%250)}},
	}
}

func buildStorm(size ctrlSize, seed int64, twin bool) (*storm, error) {
	start := time.Now()
	rng := rand.New(rand.NewSource(seed))
	s := &storm{size: size, rng: rng, mix: uint64(rng.Uint32()),
		keyIn: make([]bool, size.churnKeys), routeIn: make([]bool, size.churnRoutes)}
	// The prefixes are configuration (tableSeed), the same for every
	// seed. Their values are unique: a route delete names the value alone.
	seen := map[uint64]bool{}
	tables := rand.New(rand.NewSource(tableSeed))
	for len(s.base)+len(s.churn) < size.routes+size.churnRoutes {
		plen := 8 + tables.Intn(17)
		p := prefix{uint64(tables.Uint32()) &^ (1<<(32-uint(plen)) - 1), plen}
		if seen[p.val] {
			continue
		}
		seen[p.val] = true
		if len(s.base) < size.routes {
			s.base = append(s.base, p)
		} else {
			s.churn = append(s.churn, p)
		}
	}
	sw, err := newSwitch(ctrlProg())
	if err != nil {
		return nil, err
	}
	s.sw = sw
	if s.srv, err = p4rt.Serve("127.0.0.1:0", &p4rt.Direct{SW: sw}); err != nil {
		return nil, err
	}
	if s.cl, err = p4rt.Dial(s.srv.Addr()); err != nil {
		s.srv.Close()
		return nil, err
	}
	var batches []*bmv2.WriteBatch
	b := p4rt.NewWriteBatch()
	for k := 0; k < size.entries; k++ {
		b.Insert("fwd", s.exactEntry(uint64(k)))
		if b.Len() == size.preloadBatch {
			batches, b = append(batches, b), p4rt.NewWriteBatch()
		}
	}
	for i, p := range s.base {
		b.Insert("route", routeEntry(p, i))
	}
	batches = append(batches, b)
	for _, b := range batches {
		if _, err := s.cl.Write(b); err != nil {
			s.close()
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	// Packets: 7 in 8 look up a preloaded key, 1 in 8 a churned one.
	for i := 0; i < 8192; i++ {
		key := uint64(rng.Intn(size.entries))
		if i%8 == 7 {
			key = uint64(size.entries + rng.Intn(size.churnKeys))
		}
		p := s.base[rng.Intn(len(s.base))]
		dip := uint32(p.val) | uint32(rng.Intn(1<<(32-uint(p.len))))
		pkt := make([]byte, 13)
		binary.BigEndian.PutUint32(pkt[0:], uint32(key))
		binary.BigEndian.PutUint32(pkt[4:], dip)
		s.pkts = append(s.pkts, pkt)
	}
	s.setup = time.Since(start)
	if twin {
		if s.twin, err = newSwitch(ctrlProg()); err != nil {
			s.close()
			return nil, err
		}
		for _, b := range batches {
			if _, err := s.twin.Write(b); err != nil {
				s.close()
				return nil, err
			}
		}
	}
	return s, nil
}

func (s *storm) close() {
	s.cl.Close()
	s.srv.Close()
}

// round draws one storm round: per batch, exactPerBatch toggles of
// churn keys and routesPerBatch toggles of churn prefixes, applied to
// the expected state as drawn. Each batch is also returned split into
// its exact and its route part.
func (s *storm) round() (full, exact, routes []*bmv2.WriteBatch) {
	for i := 0; i < s.size.batches; i++ {
		b, be, br := p4rt.NewWriteBatch(), p4rt.NewWriteBatch(), p4rt.NewWriteBatch()
		used := map[int]bool{}
		for j := 0; j < s.size.exactPerBatch; j++ {
			k := s.rng.Intn(s.size.churnKeys)
			if used[k] {
				continue
			}
			used[k] = true
			key := uint64(s.size.entries + k)
			for _, x := range []*bmv2.WriteBatch{b, be} {
				if s.keyIn[k] {
					x.Delete("fwd", key)
				} else {
					x.Insert("fwd", s.exactEntry(key))
				}
			}
			s.keyIn[k] = !s.keyIn[k]
		}
		usedR := map[int]bool{}
		for j := 0; j < s.size.routesPerBatch; j++ {
			r := s.rng.Intn(s.size.churnRoutes)
			if usedR[r] {
				continue
			}
			usedR[r] = true
			p := s.churn[r]
			for _, x := range []*bmv2.WriteBatch{b, br} {
				if s.routeIn[r] {
					x.Delete("route", p.val)
				} else {
					x.Insert("route", routeEntry(p, s.size.routes+r))
				}
			}
			s.routeIn[r] = !s.routeIn[r]
		}
		full, exact, routes = append(full, b), append(exact, be), append(routes, br)
	}
	return full, exact, routes
}

// stormStats is one storm round's measurement.
type stormStats struct {
	wall      time.Duration
	ops       int
	commits   []float64 // µs
	failedOps int
	pkts      int
	hits      int
	bad       int // preloaded keys answered wrong
	dp        samples
	hitLat    samples
}

// drive processes packets until stop is closed (or, with stop nil,
// `count` packets), timing every 4th.
func (s *storm) drive(stop <-chan struct{}, count int, st *stormStats, sh *Shard) error {
	var res bmv2.Result
	for i := 0; ; i++ {
		if stop != nil {
			if i%64 == 0 {
				select {
				case <-stop:
					return nil
				default:
				}
			}
		} else if i >= count {
			return nil
		}
		pkt := s.pkts[i%len(s.pkts)]
		var err error
		switch {
		case i%4 == 0:
			t0 := time.Now()
			err = s.sw.ProcessInto(pkt, 1, &res)
			d := since(t0)
			st.dp = append(st.dp, d)
			if err == nil && binary.BigEndian.Uint32(res.Data[8:]) != ctrlMiss {
				st.hitLat = append(st.hitLat, d/1e3)
			}
		case sh.Sample():
			t0 := time.Now()
			err = s.sw.ProcessInto(pkt, 1, &res)
			sh.Record("bmv2.ProcessInto", 0, int64(i), t0, time.Now())
		default:
			err = s.sw.ProcessInto(pkt, 1, &res)
		}
		if err != nil {
			return fmt.Errorf("data path: %w", err)
		}
		st.pkts++
		key := binary.BigEndian.Uint32(pkt)
		out := binary.BigEndian.Uint32(res.Data[8:])
		if out != ctrlMiss {
			st.hits++
		}
		if int(key) < s.size.entries && uint64(out) != (uint64(key)^s.mix)&0xFFFFFFFF {
			st.bad++
		}
	}
}

// stormRound commits one round over TCP while the data path runs.
func (s *storm) stormRound(full []*bmv2.WriteBatch, tr *Tracer) (*stormStats, error) {
	st := &stormStats{}
	sh, dpSh := tr.Shard(), tr.Shard()
	stop := make(chan struct{})
	done := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(done)
		defer close(stop)
		for i, b := range full {
			t0 := time.Now()
			_, err := s.cl.Write(b)
			t1 := time.Now()
			st.commits = append(st.commits, float64(t1.Sub(t0).Nanoseconds())/1e3)
			st.ops += b.Len()
			if sh != nil {
				sh.Record("p4rt.Write", 0, int64(i), t0, t1)
			}
			if err != nil {
				st.failedOps += b.Len()
			}
		}
	}()
	err := s.drive(stop, 0, st, dpSh)
	<-done
	st.wall = time.Since(start)
	return st, err
}

// verifyTables compares the switch's tables with the expected state.
func (s *storm) verifyTables() (bool, string) {
	wantKeys := map[uint64]bool{}
	for k := 0; k < s.size.entries; k++ {
		wantKeys[uint64(k)] = true
	}
	for k, in := range s.keyIn {
		if in {
			wantKeys[uint64(s.size.entries+k)] = true
		}
	}
	fwd := s.sw.Entries("fwd")
	if len(fwd) != len(wantKeys) {
		return false, fmt.Sprintf("fwd has %d entries, want %d", len(fwd), len(wantKeys))
	}
	for _, e := range fwd {
		k := e.Keys[0].Value
		if !wantKeys[k] || e.Action.Args[0] != (k^s.mix)&0xFFFFFFFF {
			return false, fmt.Sprintf("fwd entry %d unexpected", k)
		}
	}
	want := append([]prefix(nil), s.base...)
	for r, in := range s.routeIn {
		if in {
			want = append(want, s.churn[r])
		}
	}
	var got []prefix
	for _, e := range s.sw.Entries("route") {
		got = append(got, prefix{e.Keys[0].Value, e.Keys[0].PrefixLen})
	}
	less := func(p []prefix) func(a, b int) bool {
		return func(a, b int) bool { return p[a].val < p[b].val || p[a].val == p[b].val && p[a].len < p[b].len }
	}
	sort.Slice(want, less(want))
	sort.Slice(got, less(got))
	if len(got) != len(want) {
		return false, fmt.Sprintf("route has %d entries, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return false, fmt.Sprintf("route entry %v, want %v", got[i], want[i])
		}
	}
	return true, ""
}

func runCtrlStorm(cfg runCfg) (*Report, error) {
	size := ctrlSizeFor(cfg.tiny)
	rep := newReport()
	setup := func(twin bool) (*storm, error) {
		// Collect on both sides: a set-up pays for no earlier phase's
		// garbage and leaves none of its own to a measured phase.
		gort.GC()
		s, err := buildStorm(size, cfg.seed, twin)
		if err != nil {
			return nil, err
		}
		gort.GC()
		rep.add("setup_s", "s", s.setup.Seconds())
		return s, nil
	}
	// The first set-up runs cold; its sample is dropped.
	cold, err := setup(false)
	if err != nil {
		return nil, err
	}
	cold.close()
	rep.drop("setup_s")
	s, err := setup(cfg.tr != nil)
	if err != nil {
		return nil, err
	}
	defer func() { s.close() }()
	rep.set("heap_mb", "MB", float64(liveHeap())/(1<<20))
	verify := func() {
		ok, detail := s.verifyTables()
		rep.check("tables match expected", ok, "%s", detail)
	}

	// Warm-up round, not recorded.
	full, _, _ := s.round()
	if _, err := s.stormRound(full, nil); err != nil {
		return nil, err
	}
	var exactUs, lpmUs []float64
	var gc gcMeter
	var quietAllocs, quietPkts uint64
	err = timeBox(cfg.budget, 3, func(i int) error {
		// Every third iteration a fresh set-up replaces the switch under
		// test: set-up samples spread over the measuring window, and only
		// one controller connection is ever open.
		if i%3 == 2 {
			verify()
			s.close()
			if s, err = setup(cfg.tr != nil); err != nil {
				return err
			}
		}
		// Quiet: the data path alone. The collection first settles the
		// last storm round's garbage, which is that round's cost, not
		// this phase's.
		gort.GC()
		gc.start()
		defer gc.stop()
		quiet := &stormStats{}
		g := readGC()
		t0 := time.Now()
		if err := s.drive(nil, size.quietPkts, quiet, nil); err != nil {
			return err
		}
		rep.add("pkts_per_s_serial", "1/s", float64(quiet.pkts)/time.Since(t0).Seconds())
		quietAllocs += readGC().mallocs - g.mallocs
		quietPkts += uint64(quiet.pkts)
		rep.ops(int64(quiet.pkts), int64(quiet.bad))

		traced := cfg.tr != nil && i%2 == 1
		var tr *Tracer
		if traced {
			tr = cfg.tr
		}
		full, exact, routes := s.round()
		st, err := s.stormRound(full, tr)
		if err != nil {
			return err
		}
		rep.ops(int64(st.ops+st.pkts), int64(st.failedOps+st.bad))
		pps := float64(st.pkts) / st.wall.Seconds()
		if traced {
			rep.add("trace.pkts_per_s", "1/s", pps)
		} else {
			rep.add("pkts_per_s", "1/s", pps)
			rep.add("ctrl_ops_per_s", "1/s", float64(st.ops)/st.wall.Seconds())
			rep.add("sim_end_us", "us", float64(st.wall.Nanoseconds())/1e3)
			rep.add("calls_per_s", "1/s", float64(st.hits)/st.wall.Seconds())
			// Commit percentiles per 12 consecutive commits: the median
			// over groups of each group's tail moves less with one
			// preempted commit than the tail of all commits pooled.
			for g := 0; g < len(st.commits); g += 12 {
				rep.pct("commit_p50_us", "commit_p99_us", "us", st.commits[g:min(g+12, len(st.commits))])
			}
			rep.pct("dp_p50_ns", "dp_p99_ns", "ns", st.dp)
			rep.pct("call_p50_us", "call_p99_us", "us", st.hitLat)
		}
		if s.twin != nil {
			for j := range exact {
				for _, x := range []struct {
					b   *bmv2.WriteBatch
					out *[]float64
				}{{exact[j], &exactUs}, {routes[j], &lpmUs}} {
					t0 := time.Now()
					if _, err := s.twin.Write(x.b); err != nil {
						return fmt.Errorf("direct write: %w", err)
					}
					*x.out = append(*x.out, since(t0)/1e3)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	gc.report(rep)
	rep.set("bmv2.allocs_per_pkt", "count", float64(quietAllocs)/float64(quietPkts))
	verify()

	if cfg.tr != nil {
		rep.add("bmv2.write_exact_us", "us", exactUs...)
		rep.add("bmv2.write_lpm_us", "us", lpmUs...)
		st := cfg.tr.Stats()
		wire := median(st["p4rt.Write"])/1e3 - median(exactUs) - median(lpmUs)
		rep.set("p4rt.wire_us", "us", wire)
		rep.set("trace.overhead_pct", "%", 100*(rep.Metrics["pkts_per_s"].Value/rep.Metrics["trace.pkts_per_s"].Value-1))
	}
	return rep, nil
}
