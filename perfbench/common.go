package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"netcl"
	"netcl/internal/bmv2"
	"netcl/internal/p4"
	"netcl/internal/runtime"
)

// compiledApps are the NetCL programs whose compile time is reported;
// dataplaneApps adds the benchmark's own route+ACL program.
var (
	compiledApps  = []string{"agg", "cache", "pacc", "calc"}
	dataplaneApps = []string{"agg", "cache", "pacc", "calc", "acl"}
)

// compiled is one NetCL program compiled for one device.
type compiled struct {
	device   uint16
	prog     *p4.Program
	spec     *runtime.MessageSpec
	frontend time.Duration
	backend  time.Duration
}

// compileApp compiles a paper application (by its short name: agg,
// cache, pacc, calc) for one device through netcl.Compile, with extra
// defines overriding the application's own. Device 0 means the
// application's own location (the first acceptor for pacc).
func compileApp(app string, device uint16, defines map[string]uint64) (*compiled, error) {
	reg := strings.ToUpper(app)
	if app == "pacc" {
		reg = "PAXOS"
	}
	a := netcl.AppByName(reg)
	if a == nil {
		return nil, fmt.Errorf("no application %q", reg)
	}
	if device == 0 {
		device = a.Devices[0]
		if app == "pacc" {
			device = a.Devices[1]
		}
	}
	defs := map[string]uint64{}
	for k, v := range a.Defines {
		defs[k] = v
	}
	for k, v := range defines {
		defs[k] = v
	}
	art, err := netcl.Compile(app, a.NetCL, netcl.Options{Defines: defs, Devices: []uint16{device}})
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", app, err)
	}
	d := art.Device(device)
	spec := art.Specs[1]
	if d == nil || spec == nil {
		return nil, fmt.Errorf("compile %s: no artifact for device %d", app, device)
	}
	return &compiled{device: device, prog: d.P4, spec: spec, frontend: art.FrontendTime, backend: art.BackendTime}, nil
}

// addCompileTimes records a compile's front- and back-end time.
func addCompileTimes(r *Report, app string, c *compiled) {
	r.add("compile.frontend_ms."+app, "ms", float64(c.frontend.Nanoseconds())/1e6)
	r.add("compile.backend_ms."+app, "ms", float64(c.backend.Nanoseconds())/1e6)
}

// newSwitch instantiates a program on the compiled engine.
func newSwitch(prog *p4.Program) (*bmv2.Switch, error) {
	sw := bmv2.New(prog)
	if !sw.Compiled() {
		return nil, fmt.Errorf("program %s runs on the reference engine only: %v", prog.Name, sw.CompileErr())
	}
	return sw, nil
}

// parseOnly is prog with an empty ingress control and no egress: what
// is left per packet is the parser and the deparser.
func parseOnly(prog *p4.Program) *p4.Program {
	cp := *prog
	cp.Ingress = &p4.Control{Name: prog.Ingress.Name}
	cp.Egress = nil
	return &cp
}

// fnv folds a packet outcome into an FNV-1a hash.
type fnv uint64

const fnvBasis fnv = 14695981039346656037

func (h *fnv) byte(b byte) { *h = (*h ^ fnv(b)) * 1099511628211 }

func (h *fnv) word(v uint64) {
	for s := 0; s < 64; s += 8 {
		h.byte(byte(v >> s))
	}
}

func (h *fnv) result(res *bmv2.Result, err error) {
	if err != nil {
		h.word(0xE5505)
		return
	}
	h.word(uint64(res.Port))
	h.word(uint64(res.Mcast))
	if res.Dropped {
		h.byte(1)
	}
	if res.NoMatch {
		h.byte(2)
	}
	for _, b := range res.Data {
		h.byte(b)
	}
}

// timeBox runs fn(0), fn(1), ... until the budget is spent, at least
// min times.
func timeBox(budget time.Duration, min int, fn func(i int) error) error {
	start := time.Now()
	for i := 0; i < min || time.Since(start) < budget; i++ {
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

// fwdBatch adds netcl_fwd entries mapping node ids lo..hi to port = id.
func fwdBatch(b *bmv2.WriteBatch, lo, hi int) *bmv2.WriteBatch {
	for id := lo; id <= hi; id++ {
		b.Insert("netcl_fwd", &p4.Entry{
			Keys:   []p4.KeyValue{{Value: uint64(id), PrefixLen: -1}},
			Action: &p4.ActionCall{Name: "set_port", Args: []uint64{uint64(id)}},
		})
	}
	return b
}

// argFiller draws one kernel argument word: the argument's name, the
// element index, and the seeded source.
type argFiller func(name string, k int, rng *rand.Rand) uint64

// packStream builds n framed request packets for spec from a seeded
// source. Source and destination node ids are 1..8.
func packStream(spec *runtime.MessageSpec, device uint16, n int, rng *rand.Rand, fill argFiller) ([][]byte, error) {
	args := make([][]uint64, len(spec.Args))
	for i, a := range spec.Args {
		args[i] = make([]uint64, a.Count)
	}
	out := make([][]byte, 0, n)
	for p := 0; p < n; p++ {
		for i, a := range spec.Args {
			mask := ^uint64(0)
			if a.Bytes < 8 {
				mask = uint64(1)<<(uint(a.Bytes)*8) - 1
			}
			for k := range args[i] {
				args[i][k] = fill(a.Name, k, rng) & mask
			}
		}
		src := uint16(1 + rng.Intn(8))
		hdr := runtime.Message{Src: src, Dst: uint16(1 + rng.Intn(8)), Device: device, Comp: spec.Comp}.Header()
		msg, err := runtime.PackAppend(nil, spec, hdr, args)
		if err != nil {
			return nil, err
		}
		out = append(out, runtime.Frame(msg, uint64(src), 0))
	}
	return out, nil
}
