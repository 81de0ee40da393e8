package netsim

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Partitioned conservative-lookahead execution (CMB-style). The
// network is split into logical processes (LPs): each device with its
// attached hosts is one LP, except that devices joined by a link
// without positive latency share one. Every LP owns its own event
// queue, clock, buffer pool and counters. Time advances in global
// windows [t, t+L) where t is the earliest pending event anywhere and
// L is the minimum latency of any link between LPs. Within a window
// every LP runs independently (its events cannot affect another LP
// earlier than t+L, because the only cross-LP influence is a packet
// that must traverse a cross link: arrival ≥ send time + L ≥ t + L).
// k persistent workers share the LPs: each window they claim LPs in id
// order from one cursor, so no worker idles behind a fixed block of
// devices while the load moves across the topology. Cross-LP
// transmits land in per-destination mailboxes and are enqueued at the
// barrier, in fixed (source, append) order, stamped with times the
// invariant guarantees are at or beyond the next window's start; which
// worker ran an LP never shows in the result.

// part is one logical process's execution context. The network's
// built-in serial context is a part too (id 0, sim = &n.Sim), so the
// dispatch path is identical with and without partitioning.
type part struct {
	n      *Network
	id     int32
	sim    *Sim
	pool   bufPool
	ctr    *netCounters
	outbox [][]event // mailboxes, indexed by destination LP
}

// SetPartitions arms partitioned execution with k workers. Every
// device becomes its own logical process (LP) with the hosts attached
// to it; devices joined by a link with no positive latency are merged
// into one LP, since such a link leaves no lookahead window between
// them. k is clamped to the LP count; k ≤ 1, or a network that forms a
// single LP, runs serially. Call it after the topology is built and
// before scheduling scenario events: pending events stay on LP 0.
//
// Any call — including k=1 — switches the network to partitioned
// semantics permanently: per-(link,direction) fault streams and
// traversal counters, so fault patterns and hash chains are
// comparable across worker counts. Networks that never call
// SetPartitions keep the original serial behavior bit for bit.
func (n *Network) SetPartitions(k int) error {
	n.pmode = true
	n.parts = nil
	for i := range n.hc.part {
		n.hc.part[i] = 0
	}
	for _, d := range n.devs {
		d.part = 0
	}
	if k <= 1 {
		return nil
	}

	// Union-find over zero-latency device links, rooted at the lowest
	// device index, so LP ids follow device creation order.
	root := make([]int32, len(n.devs))
	for i := range root {
		root[i] = int32(i)
	}
	find := func(i int32) int32 {
		for root[i] != i {
			root[i] = root[root[i]]
			i = root[i]
		}
		return i
	}
	for i := int32(0); i < n.links.count; i++ {
		l := n.links.at(i)
		if l.LatencyNs <= 0 && l.ends[0].isDevice() && l.ends[1].isDevice() {
			a, b := find(l.ends[0].deviceIdx()), find(l.ends[1].deviceIdx())
			root[max(a, b)] = min(a, b)
		}
	}
	lps := int32(0)
	for i, d := range n.devs {
		if r := find(int32(i)); r == int32(i) {
			d.part = lps
			lps++
		} else {
			d.part = n.devs[r].part
		}
	}
	if lps <= 1 {
		return nil
	}
	// Hosts follow the device they attach to (unattached hosts stay on
	// LP 0 — they generate no events anyway).
	for i := range n.hc.part {
		if li := n.hc.link[i]; li != 0 {
			peer := n.links.at(li - 1).ends[1]
			if peer.isDevice() {
				n.hc.part[i] = n.devs[peer.deviceIdx()].part
			}
		}
	}

	// Lookahead = min latency over cross-LP links.
	n.lookahead = Time(math.Inf(1))
	for i := int32(0); i < n.links.count; i++ {
		l := n.links.at(i)
		a, b := n.endPart(l.ends[0]), n.endPart(l.ends[1])
		if a == b {
			continue
		}
		if l.LatencyNs <= 0 {
			return fmt.Errorf("netsim: link %d joins two logical processes with latency %v; conservative lookahead needs > 0", i, l.LatencyNs)
		}
		if l.LatencyNs < n.lookahead {
			n.lookahead = l.LatencyNs
		}
	}

	n.workers = min(k, int(lps))
	n.parts = make([]*part, lps)
	n.serial.id = 0
	n.serial.outbox = make([][]event, lps)
	n.parts[0] = &n.serial
	for i := int32(1); i < lps; i++ {
		p := &part{n: n, id: i, sim: &Sim{}, ctr: &netCounters{}, outbox: make([][]event, lps)}
		p.sim.exec = func(e *event) { p.dispatch(e) }
		p.sim.now = n.Sim.now
		n.parts[i] = p
	}
	return nil
}

// endPart returns the LP a link end belongs to.
func (n *Network) endPart(e end) int32 {
	if e.isDevice() {
		return n.devs[e.deviceIdx()].part
	}
	return n.hc.part[e.node]
}

// Lookahead reports the conservative-lookahead window width (0 when
// unpartitioned, +Inf when no link crosses LPs).
func (n *Network) Lookahead() Time {
	if len(n.parts) <= 1 {
		return 0
	}
	return n.lookahead
}

// Partitions reports the active worker count: SetPartitions' k clamped
// to the LP count (1 when serial).
func (n *Network) Partitions() int {
	if len(n.parts) == 0 {
		return 1
	}
	return n.workers
}

// PrewarmBuffers stocks the packet-buffer pools with count buffers of
// the given byte capacity, split evenly across LPs. Call it after
// SetPartitions (each LP owns its own pool): a run whose in-flight
// working set stays under the prewarmed count allocates no packet
// buffers at all.
func (n *Network) PrewarmBuffers(count, size int) {
	ps := n.parts
	if len(ps) == 0 {
		ps = []*part{&n.serial}
	}
	per := (count + len(ps) - 1) / len(ps)
	for _, p := range ps {
		p.pool.prewarm(per, size)
	}
}

// BufferPeak sums the per-LP high-water marks of checked-out packet
// buffers: the run's buffer working set.
func (n *Network) BufferPeak() int {
	if len(n.parts) == 0 {
		return n.serial.pool.peak
	}
	t := 0
	for _, p := range n.parts {
		t += p.pool.peak
	}
	return t
}

// TotalProcessed sums executed events across all LPs.
func (n *Network) TotalProcessed() uint64 {
	if len(n.parts) == 0 {
		return n.Sim.Processed
	}
	var t uint64
	for _, p := range n.parts {
		t += p.sim.Processed
	}
	return t
}

// TotalPeakQueue sums the per-LP pending-event high-water marks: the
// aggregate queue footprint of a run.
func (n *Network) TotalPeakQueue() int {
	if len(n.parts) == 0 {
		return n.Sim.PeakQueue
	}
	t := 0
	for _, p := range n.parts {
		t += p.sim.PeakQueue
	}
	return t
}

// Run processes events up to the horizon (0 = until drained),
// delegating to the partitioned engine when partitions are armed.
func (n *Network) Run(until Time) error {
	if len(n.parts) > 1 {
		return n.RunParallel(until)
	}
	err := n.Sim.Run(until)
	if n.pmode {
		n.foldLinks()
	}
	return err
}

// RunAll processes every pending event.
func (n *Network) RunAll() error { return n.Run(0) }

// RunParallel executes the partitioned simulation in conservative-
// lookahead windows until every queue is drained or the horizon is
// reached. It starts its workers once per call and keeps them across
// windows: each window the coordinator hands every worker one token,
// the workers claim LPs in id order from a shared cursor until none is
// left, and a WaitGroup reused every window is the barrier. On a
// single-CPU box the workers serialize and the win is memory locality
// only (record GOMAXPROCS when benchmarking).
func (n *Network) RunParallel(until Time) error {
	if len(n.parts) <= 1 {
		return n.Run(until)
	}
	var (
		wg   sync.WaitGroup
		next atomic.Int32
		wEnd Time
	)
	tokens := make(chan struct{}, n.workers)
	for w := 0; w < n.workers; w++ {
		go func() {
			for range tokens {
				for {
					i := int(next.Add(1)) - 1
					if i >= len(n.parts) {
						break
					}
					n.parts[i].sim.runWindow(wEnd, until)
				}
				wg.Done()
			}
			wg.Done() // exited; the deferred Wait below counts exits
		}()
	}
	defer func() {
		wg.Add(n.workers)
		close(tokens)
		wg.Wait()
	}()
	for {
		// Global next-event time.
		t := Time(math.Inf(1))
		for _, p := range n.parts {
			if at, ok := p.sim.peek(); ok && at < t {
				t = at
			}
		}
		if math.IsInf(float64(t), 1) || (until > 0 && t > until) {
			break
		}
		wEnd = t + n.lookahead
		next.Store(0)
		wg.Add(n.workers)
		for w := 0; w < n.workers; w++ {
			tokens <- struct{}{}
		}
		wg.Wait()
		// Barrier: drain mailboxes in fixed (destination, source,
		// append) order so cross-LP events get a deterministic local
		// scheduling order.
		for di, dst := range n.parts {
			for _, src := range n.parts {
				box := src.outbox[di]
				for i := range box {
					if box[i].at < wEnd && !math.IsInf(float64(wEnd), 1) {
						return fmt.Errorf("netsim: lookahead violation: cross event at %v before window end %v", box[i].at, wEnd)
					}
					dst.sim.push(box[i])
				}
				src.outbox[di] = box[:0]
			}
		}
		if n.MaxEvents > 0 && n.TotalProcessed() > n.MaxEvents {
			return fmt.Errorf("netsim: event budget exceeded (%d)", n.MaxEvents)
		}
	}
	// Land every clock on a common time: the horizon, or the furthest
	// LP when running to drain.
	endT := until
	for _, p := range n.parts {
		if p.sim.now > endT {
			endT = p.sim.now
		}
	}
	for _, p := range n.parts {
		if endT > p.sim.now {
			p.sim.now = endT
		}
	}
	n.foldParallel()
	return nil
}

// foldParallel folds per-LP counters and per-direction link counters
// into the public aggregate fields.
func (n *Network) foldParallel() {
	for _, p := range n.parts {
		if p.ctr != &n.netCounters {
			n.netCounters.fold(p.ctr)
			*p.ctr = netCounters{}
		}
	}
	n.foldLinks()
}

// foldLinks rolls the partitioned regime's per-direction traversal and
// drop counters into the historical whole-link fields.
func (n *Network) foldLinks() {
	for i := int32(0); i < n.links.count; i++ {
		l := n.links.at(i)
		l.crossed += l.crossedDir[0] + l.crossedDir[1]
		l.Dropped += l.droppedDir[0] + l.droppedDir[1]
		l.crossedDir[0], l.crossedDir[1] = 0, 0
		l.droppedDir[0], l.droppedDir[1] = 0, 0
	}
}
