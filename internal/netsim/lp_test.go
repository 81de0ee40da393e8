package netsim

// lp_test.go pins the logical-process contract of SetPartitions (one
// LP per device with its hosts, zero-latency device links merged, the
// lookahead taken over links between LPs, k clamped to the LP count)
// and the persistent-worker runner: a load wave moving along a chain
// replays the serial run at any worker count, with at most k worker
// goroutines alive while it runs.

import (
	"math"
	gort "runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"netcl/internal/p4"
	"netcl/internal/passes"
	"netcl/internal/testutil"
)

func TestSetPartitionsPerDeviceLPs(t *testing.T) {
	for _, k := range []int{2, 4, 100} {
		n := NewNetwork()
		prog := func(id uint16) *p4.Program {
			p, _, err := testutil.CompileOne(testutil.EchoKernel, passes.TargetTNA, id)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		// Ids interleave the pods: edges 10,11 (pod 0) and 12,13 (pod 1),
		// aggs 50,51 / 52,53, core 100.
		topo, err := BuildFatTree(n, FatTreeSpec{
			Pods: 2, EdgesPerPod: 2, AggsPerPod: 2,
			CoreIDs: []uint16{100},
			EdgeID:  func(p, i int) uint16 { return uint16(10 + p*2 + i) },
			AggID:   func(p, i int) uint16 { return uint16(50 + p*2 + i) },
			Prog:    prog,
		})
		if err != nil {
			t.Fatal(err)
		}
		// One zero-latency device pair (edges 10 and 11) and one fabric
		// link faster than the rest (edge 12 to agg 52).
		e10, e11, e12 := n.Device(10), n.Device(11), n.Device(12)
		n.ConnectDevices(e10, 90, e11, 90).LatencyNs = 0
		n.links.at(e12.ports[topo.PortTo(e12, n.Device(52))] - 1).LatencyNs = 1500
		var hosts []*Host
		for i, d := range topo.Tiers[0] {
			h := n.AddHost(uint16(200 + i))
			topo.AttachHost(h, d, LinkClass{})
			hosts = append(hosts, h)
		}

		if err := n.SetPartitions(k); err != nil {
			t.Fatal(err)
		}
		const lps = 8 // nine devices, one pair merged
		if len(n.parts) != lps {
			t.Fatalf("k=%d: %d LPs, want %d", k, len(n.parts), lps)
		}
		owner := map[int32]uint16{}
		for _, d := range n.devs {
			if d == e11 {
				continue
			}
			if prev, ok := owner[d.part]; ok {
				t.Errorf("k=%d: devices %d and %d share LP %d", k, prev, d.ID, d.part)
			}
			owner[d.part] = d.ID
		}
		if e10.part != e11.part {
			t.Errorf("k=%d: zero-latency pair on LPs %d and %d, want one", k, e10.part, e11.part)
		}
		for i, h := range hosts {
			if d := topo.Tiers[0][i]; n.hc.part[h.idx] != d.part {
				t.Errorf("k=%d: host %d on LP %d, its device %d on LP %d", k, h.ID, n.hc.part[h.idx], d.ID, d.part)
			}
		}
		want := Time(math.Inf(1))
		for i := int32(0); i < n.links.count; i++ {
			l := n.links.at(i)
			if n.endPart(l.ends[0]) != n.endPart(l.ends[1]) {
				want = min(want, l.LatencyNs)
			}
		}
		if got := n.Lookahead(); got != want || got != 1500 {
			t.Errorf("k=%d: lookahead %v, want %v (the fast edge-agg link)", k, got, want)
		}
		if got := n.Partitions(); got != min(k, lps) {
			t.Errorf("k=%d: Partitions() = %d, want %d", k, got, min(k, lps))
		}
	}
}

// TestPartitionedWaveWorkers: hosts start in host-index order along a
// ten-device chain, so the load moves from device to device like the
// agg-chain benchmark's wave and most windows keep only one or two LPs
// busy. Every worker count must replay the serial hash chain. No more
// than k goroutines beyond the caller's may be alive while it runs, and
// no more than k distinct ones may run callbacks over the whole run:
// the checks fail if per-LP or per-window goroutines come back.
func TestPartitionedWaveWorkers(t *testing.T) {
	const devices = 10
	run := func(k int) (chainRun, int64, int) {
		n, _ := chainNet(t, devices, 3)
		n.EnableTrace()
		if k > 0 {
			if err := n.SetPartitions(k); err != nil {
				t.Fatal(err)
			}
		}
		base := gort.NumGoroutine()
		var extra atomic.Int64
		var mu sync.Mutex
		ran := map[string]bool{}
		send := n.timerFn
		n.OnTimer(func(h *Host) {
			g := int64(gort.NumGoroutine() - base)
			for cur := extra.Load(); g > cur && !extra.CompareAndSwap(cur, g); cur = extra.Load() {
			}
			var buf [64]byte
			id := strings.Fields(string(buf[:gort.Stack(buf[:], false)]))[1] // "goroutine N [running]:"
			mu.Lock()
			ran[id] = true
			mu.Unlock()
			send(h)
		})
		for i := int32(0); i < n.hs.count; i++ {
			n.hs.at(i).StartTimer(100*Nanosecond + Time(i)*Microsecond)
		}
		if err := n.RunAll(); err != nil {
			t.Fatal(err)
		}
		return chainRun{
			hash:      n.TraceHash(),
			delivered: n.PacketsDelivered,
			dropped:   n.PacketsDropped,
			processed: n.TotalProcessed(),
			now:       n.Now(),
		}, extra.Load(), len(ran)
	}
	serial, _, _ := run(0)
	if serial.delivered == 0 {
		t.Fatal("wave scenario delivered nothing")
	}
	for _, k := range []int{2, 3, devices + 5} {
		got, extra, ran := run(k)
		if got != serial {
			t.Errorf("k=%d diverged from serial: %+v vs %+v", k, got, serial)
		}
		if extra < 1 || extra > int64(k) {
			t.Errorf("k=%d: %d goroutines beyond the caller's alive during the run, want 1..%d", k, extra, k)
		}
		if ran > k {
			t.Errorf("k=%d: %d distinct goroutines ran timer callbacks, want at most %d", k, ran, k)
		}
	}
}
