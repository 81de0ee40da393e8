package main

// dataplane-mix: the data-plane read path alone. The compiled AGG,
// CACHE, PACC (Paxos acceptor) and CALC programs and the benchmark's
// route+ACL program (LPM, ternary and range tables) each get a seeded
// stream of framed packets; the streams are interleaved in bursts
// through ProcessInto. No simulator, no control plane after preload.

import (
	"fmt"
	"math/rand"
	gort "runtime"
	"time"

	"netcl/internal/bmv2"
	"netcl/internal/p4"
)

// dpApp is one program of the mix.
type dpApp struct {
	name    string
	prog    *p4.Program
	sw      *bmv2.Switch
	batches []*bmv2.WriteBatch // preload, in commit order
	lpm     []bool             // batches[i] touches an LPM table
	pkts    [][]byte
	request bool // a request the data plane answers (CACHE, CALC)
}

type dpSize struct{ perApp, routes, rules, burst int }

func dpSizeFor(tiny bool) dpSize {
	if tiny {
		return dpSize{perApp: 256, routes: 64, rules: 32, burst: 16}
	}
	return dpSize{perApp: 4096, routes: 1024, rules: 256, burst: 16}
}

// dpMix is one set-up of the workload.
type dpMix struct {
	apps    []*dpApp
	setup   time.Duration
	commits []float64 // µs per preload commit
	exactUs []float64
	lpmUs   []float64
	entries int
	compile map[string]*compiled
}

const cacheKeys, cacheWords = 32, 16

func buildMix(size dpSize, seed int64) (*dpMix, error) {
	start := time.Now()
	mix := &dpMix{compile: map[string]*compiled{}}
	rng := rand.New(rand.NewSource(seed))
	for _, name := range compiledApps {
		c, err := compileApp(name, 0, nil)
		if err != nil {
			return nil, err
		}
		mix.compile[name] = c
		a := &dpApp{name: name, prog: c.prog, request: name == "cache" || name == "calc"}
		a.batches = append(a.batches, fwdBatch(bmv2.NewWriteBatch(), 1, 8))
		a.lpm = append(a.lpm, false)
		if name == "cache" {
			for k := 0; k < cacheKeys; k += 8 {
				b := bmv2.NewWriteBatch()
				for key := k + 1; key <= k+8; key++ {
					idx := uint64(key - 1)
					b.Insert("lu_Index", &p4.Entry{
						Keys:   []p4.KeyValue{{Value: uint64(key), PrefixLen: -1}},
						Action: &p4.ActionCall{Name: "lu_Index_hit", Args: []uint64{idx}},
					})
					b.Insert("lu_Share", &p4.Entry{
						Keys:   []p4.KeyValue{{Value: uint64(key), PrefixLen: -1}},
						Action: &p4.ActionCall{Name: "lu_Share_hit", Args: []uint64{1<<cacheWords - 1}},
					})
					for w := 0; w < cacheWords; w++ {
						b.RegisterWrite(fmt.Sprintf("reg_Vals__%d", w), int(idx), uint64(key*100+w))
					}
					b.RegisterWrite("reg_Valid", int(idx), 1)
				}
				a.batches = append(a.batches, b)
				a.lpm = append(a.lpm, false)
			}
		}
		pkts, err := packStream(c.spec, c.device, size.perApp, rng, fillerFor(name))
		if err != nil {
			return nil, err
		}
		a.pkts = pkts
		mix.apps = append(mix.apps, a)
	}
	acl := aclApp(size, rand.New(rand.NewSource(tableSeed)), rng)
	mix.apps = append(mix.apps, acl)

	for _, a := range mix.apps {
		sw, err := newSwitch(a.prog)
		if err != nil {
			return nil, err
		}
		a.sw = sw
		for i, b := range a.batches {
			t0 := time.Now()
			if _, err := sw.Write(b); err != nil {
				return nil, fmt.Errorf("%s preload: %w", a.name, err)
			}
			us := since(t0) / 1e3
			mix.commits = append(mix.commits, us)
			if a.lpm[i] {
				mix.lpmUs = append(mix.lpmUs, us)
			} else {
				mix.exactUs = append(mix.exactUs, us)
			}
			mix.entries += b.Len()
		}
	}
	mix.setup = time.Since(start)
	return mix, nil
}

// fillerFor draws kernel arguments that exercise every branch of the
// program: small opcodes, cached and uncached keys, in-range indices.
func fillerFor(app string) argFiller {
	return func(name string, k int, rng *rand.Rand) uint64 {
		switch app + "." + name {
		case "agg.ver":
			return uint64(rng.Intn(2))
		case "agg.bmp_idx", "agg.agg_idx":
			return uint64(rng.Intn(256))
		case "agg.mask":
			return 1 << rng.Intn(6)
		case "cache.op":
			return uint64(1 + rng.Intn(3))
		case "cache.key":
			return uint64(1 + rng.Intn(2*cacheKeys))
		case "pacc.type":
			return 2 // PHASE2A
		case "pacc.instance":
			return uint64(rng.Intn(16384))
		case "pacc.round":
			return uint64(rng.Intn(8))
		case "calc.op":
			return uint64(1 + rng.Intn(5))
		}
		return rng.Uint64()
	}
}

// aclProg is a route-and-firewall pipeline: an LPM route table picks
// the next hop by destination, then a ternary/range firewall permits or
// drops by source, destination port and protocol.
func aclProg() *p4.Program {
	pp := &p4.Program{Name: "acl", Target: p4.TargetTNA}
	pp.Headers = []*p4.HeaderDecl{{Name: "f", Fields: []*p4.Field{
		{Name: "dip", Bits: 32}, {Name: "sip", Bits: 32},
		{Name: "sport", Bits: 16}, {Name: "dport", Bits: 16},
		{Name: "proto", Bits: 8}, {Name: "hop", Bits: 8},
	}}}
	pp.Metadata = []*p4.Field{
		{Name: "egress_port", Bits: 16}, {Name: "mcast_grp", Bits: 16}, {Name: "drop_flag", Bits: 1},
	}
	pp.Parser = &p4.Parser{Name: "P", States: []*p4.ParserState{
		{Name: "start", Extracts: []string{"f"}, Next: "accept"},
	}}
	ctl := &p4.Control{Name: "In"}
	ctl.Actions = []*p4.ActionDecl{
		{Name: "set_hop", Params: []*p4.Field{{Name: "h", Bits: 8}},
			Body: []p4.Stmt{
				&p4.Assign{LHS: p4.FR("hdr", "f", "hop"), RHS: p4.FR("h")},
				&p4.Assign{LHS: p4.FR("meta", "egress_port"), RHS: &p4.IntLit{Val: 9, Bits: 16}},
			}},
		{Name: "deny", Body: []p4.Stmt{&p4.Assign{LHS: p4.FR("meta", "drop_flag"), RHS: &p4.IntLit{Val: 1, Bits: 1}}}},
		{Name: "permit"},
	}
	ctl.Tables = []*p4.Table{
		{Name: "route", Keys: []*p4.TableKey{{Expr: p4.FR("hdr", "f", "dip"), Match: p4.MatchLPM}},
			Actions: []string{"set_hop", "deny"}, Default: &p4.ActionCall{Name: "deny"}},
		{Name: "fw", Keys: []*p4.TableKey{
			{Expr: p4.FR("hdr", "f", "sip"), Match: p4.MatchTernary},
			{Expr: p4.FR("hdr", "f", "dport"), Match: p4.MatchRange},
			{Expr: p4.FR("hdr", "f", "proto"), Match: p4.MatchTernary},
		}, Actions: []string{"permit", "deny"}, Default: &p4.ActionCall{Name: "permit"}},
	}
	ctl.Apply = []p4.Stmt{&p4.ApplyTable{Table: "route"}, &p4.ApplyTable{Table: "fw"}}
	pp.Ingress = ctl
	return pp
}

// tableSeed draws the preloaded tables. They are configuration, not
// input: the same for every --seed, so memory and commit costs do not
// vary with the seed while the traffic does.
const tableSeed = 0xac1

// aclApp builds the route+ACL program's preload (route prefixes and
// firewall rules from tables, 64 per commit) and its packet stream from
// pkts, biased to destinations under installed prefixes.
func aclApp(size dpSize, tables, pkts *rand.Rand) *dpApp {
	rng := tables
	a := &dpApp{name: "acl", prog: aclProg()}
	prefixes := make([]uint64, 0, size.routes)
	b := bmv2.NewWriteBatch()
	flush := func(lpm bool) {
		if b.Len() > 0 {
			a.batches = append(a.batches, b)
			a.lpm = append(a.lpm, lpm)
			b = bmv2.NewWriteBatch()
		}
	}
	seen := map[[2]uint64]bool{}
	for len(prefixes) < size.routes {
		plen := 8 + rng.Intn(25)
		dip := uint64(rng.Uint32()) &^ (1<<(32-uint(plen)) - 1)
		if seen[[2]uint64{dip, uint64(plen)}] {
			continue
		}
		seen[[2]uint64{dip, uint64(plen)}] = true
		prefixes = append(prefixes, dip)
		b.Insert("route", &p4.Entry{
			Keys:   []p4.KeyValue{{Value: dip, PrefixLen: plen}},
			Action: &p4.ActionCall{Name: "set_hop", Args: []uint64{uint64(1 + len(prefixes)%250)}},
		})
		if b.Len() == 64 {
			flush(true)
		}
	}
	flush(true)
	for i := 0; i < size.rules; i++ {
		splen := rng.Intn(25)
		smask := uint64(0)
		if splen > 0 {
			smask = (1<<uint(splen) - 1) << (32 - uint(splen))
		}
		lo := uint64(rng.Intn(1 << 15))
		act := "permit"
		if i%3 == 0 {
			act = "deny"
		}
		b.Insert("fw", &p4.Entry{
			Keys: []p4.KeyValue{
				{Value: uint64(rng.Uint32()) & smask, Mask: smask},
				{Value: lo, Hi: lo + uint64(rng.Intn(1<<10))},
				{Value: uint64(rng.Intn(4)), Mask: 0x3},
			},
			Action:   &p4.ActionCall{Name: act},
			Priority: rng.Intn(16),
		})
		if b.Len() == 64 {
			flush(false)
		}
	}
	flush(false)
	rng = pkts
	for p := 0; p < size.perApp; p++ {
		dip := uint32(prefixes[rng.Intn(len(prefixes))]) | uint32(rng.Intn(1<<10))
		a.pkts = append(a.pkts, []byte{
			byte(dip >> 24), byte(dip >> 16), byte(dip >> 8), byte(dip),
			byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)),
			byte(rng.Intn(256)), byte(rng.Intn(256)),
			byte(rng.Intn(1 << 7)), byte(rng.Intn(256)),
			byte(rng.Intn(4)), 0,
		})
	}
	return a
}

// pass drives every packet once: interleaved in bursts of `burst`
// packets per program, or (burst 0) one program after another. Every
// 16th packet is timed alone into lat/reqLat. It returns the wall time,
// the number of requests, and per-program busy time when byApp is set.
func (m *dpMix) pass(burst int, hash *fnv, lat, reqLat *samples, byApp []float64, sh *Shard) (time.Duration, int, error) {
	var res bmv2.Result
	var n, requests int
	var err error
	process := func(a *dpApp, pkt []byte) {
		n++
		if a.request {
			requests++
		}
		if n%16 == 0 && lat != nil {
			t0 := time.Now()
			err = a.sw.ProcessInto(pkt, 1, &res)
			d := since(t0)
			*lat = append(*lat, d)
			if a.request {
				*reqLat = append(*reqLat, d/1e3)
			}
		} else if sh.Sample() {
			t0 := time.Now()
			err = a.sw.ProcessInto(pkt, 1, &res)
			sh.Record("bmv2.ProcessInto."+a.name, 0, int64(n), t0, time.Now())
		} else {
			err = a.sw.ProcessInto(pkt, 1, &res)
		}
		if hash != nil {
			hash.result(&res, err)
		}
	}
	start := time.Now()
	if burst == 0 {
		for i, a := range m.apps {
			t0 := time.Now()
			for _, pkt := range a.pkts {
				process(a, pkt)
				if err != nil {
					return 0, 0, fmt.Errorf("%s: %w", a.name, err)
				}
			}
			if byApp != nil {
				byApp[i] = since(t0) / float64(len(a.pkts))
			}
		}
		return time.Since(start), requests, nil
	}
	per := len(m.apps[0].pkts)
	for off := 0; off < per; off += burst {
		for _, a := range m.apps {
			end := off + burst
			if end > len(a.pkts) {
				end = len(a.pkts)
			}
			for _, pkt := range a.pkts[off:end] {
				process(a, pkt)
				if err != nil && hash == nil {
					return 0, 0, fmt.Errorf("%s: %w", a.name, err)
				}
			}
		}
	}
	return time.Since(start), requests, nil
}

// referenceHash runs the first interleaved pass on reference-engine
// switches with the same preload.
func (m *dpMix) referenceHash(burst int) (fnv, error) {
	ref := &dpMix{}
	for _, a := range m.apps {
		sw := bmv2.New(a.prog)
		sw.SetEngine(bmv2.EngineReference)
		for _, b := range a.batches {
			if _, err := sw.Write(b); err != nil {
				return 0, fmt.Errorf("%s reference preload: %w", a.name, err)
			}
		}
		ref.apps = append(ref.apps, &dpApp{name: a.name, sw: sw, pkts: a.pkts, request: a.request})
	}
	h := fnvBasis
	_, _, err := ref.pass(burst, &h, nil, nil, nil, nil)
	return h, err
}

func (m *dpMix) packets() int {
	n := 0
	for _, a := range m.apps {
		n += len(a.pkts)
	}
	return n
}

func runDataplaneMix(cfg runCfg) (*Report, error) {
	size := dpSizeFor(cfg.tiny)
	rep := newReport()
	setup := func() (*dpMix, error) {
		// Collect on both sides: a set-up pays for no earlier phase's
		// garbage and leaves none of its own to a measured phase.
		gort.GC()
		mix, err := buildMix(size, cfg.seed)
		if err != nil {
			return nil, err
		}
		gort.GC()
		rep.add("setup_s", "s", mix.setup.Seconds())
		rep.pct("commit_p50_us", "commit_p99_us", "us", mix.commits)
		var total float64
		for _, us := range mix.commits {
			total += us
		}
		rep.add("ctrl_ops_per_s", "1/s", float64(mix.entries)/(total/1e6))
		rep.add("bmv2.write_exact_us", "us", median(mix.exactUs))
		rep.add("bmv2.write_lpm_us", "us", median(mix.lpmUs))
		for name, c := range mix.compile {
			addCompileTimes(rep, name, c)
		}
		return mix, nil
	}
	// The first set-up runs cold; its samples are dropped.
	if _, err := setup(); err != nil {
		return nil, err
	}
	rep.drop("setup_s", "ctrl_ops_per_s", "commit_p50_us", "commit_p99_us")
	mix, err := setup()
	if err != nil {
		return nil, err
	}
	rep.set("heap_mb", "MB", float64(liveHeap())/(1<<20))
	rep.Notes["packets_per_pass"] = mix.packets()

	// First pass: the output hash must equal the reference engine's.
	got := fnvBasis
	if _, _, err := mix.pass(size.burst, &got, nil, nil, nil, nil); err != nil {
		return nil, err
	}
	want, err := mix.referenceHash(size.burst)
	if err != nil {
		return nil, err
	}
	rep.check("output hash equals reference engine", got == want, "compiled %#x, reference %#x", got, want)

	pkts := float64(mix.packets())
	byApp := make([]float64, len(mix.apps))
	var gc gcMeter
	var allocPkts float64
	var allocs uint64
	measure := func(lat, reqLat *samples) error {
		g := readGC()
		wall, requests, err := mix.pass(size.burst, nil, lat, reqLat, nil, nil)
		if err != nil {
			return err
		}
		allocs += readGC().mallocs - g.mallocs
		allocPkts += pkts
		rep.add("pkts_per_s", "1/s", pkts/wall.Seconds())
		rep.add("calls_per_s", "1/s", float64(requests)/wall.Seconds())
		rep.add("sim_end_us", "us", float64(wall.Nanoseconds())/1e3)
		wall, _, err = mix.pass(0, nil, nil, nil, byApp, nil)
		if err != nil {
			return err
		}
		rep.add("pkts_per_s_serial", "1/s", pkts/wall.Seconds())
		for i, a := range mix.apps {
			rep.add("bmv2.ns_per_pkt."+a.name, "ns", byApp[i])
		}
		if cfg.tr != nil {
			wall, _, err = mix.pass(size.burst, nil, nil, nil, nil, cfg.tr.Shard())
			if err != nil {
				return err
			}
			rep.add("trace.pkts_per_s", "1/s", pkts/wall.Seconds())
		}
		rep.ops(int64(pkts)*2, 0)
		return nil
	}
	err = timeBox(cfg.budget, 3, func(i int) error {
		// A throwaway set-up every second iteration spreads the set-up
		// samples over the measuring window and leaves most of it to
		// the passes.
		if i%2 == 0 {
			if _, err := setup(); err != nil {
				return err
			}
		}
		var lat, reqLat samples
		for r := 0; r < 2; r++ {
			gc.start()
			if err := measure(&lat, &reqLat); err != nil {
				return err
			}
			gc.stop()
		}
		rep.pct("dp_p50_ns", "dp_p99_ns", "ns", lat)
		rep.pct("call_p50_us", "call_p99_us", "us", reqLat)
		return nil
	})
	if err != nil {
		return nil, err
	}
	gc.report(rep)
	rep.set("bmv2.allocs_per_pkt", "count", float64(allocs)/allocPkts)

	if cfg.tr != nil {
		// Parser and deparser alone: each program with an empty ingress.
		for _, a := range mix.apps {
			sw, err := newSwitch(parseOnly(a.prog))
			if err != nil {
				return nil, err
			}
			var res bmv2.Result
			for r := 0; r < 5; r++ {
				t0 := time.Now()
				for _, pkt := range a.pkts {
					_ = sw.ProcessInto(pkt, 1, &res) // drops are the expected outcome
				}
				rep.add("bmv2.parse_ns_per_pkt."+a.name, "ns", since(t0)/float64(len(a.pkts)))
			}
		}
		rep.set("trace.overhead_pct", "%", 100*(rep.Metrics["pkts_per_s"].Value/rep.Metrics["trace.pkts_per_s"].Value-1))
	}
	return rep, nil
}
