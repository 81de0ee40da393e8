// Package netsim is a deterministic discrete-event network simulator:
// hosts running Go callbacks, devices running P4 programs on the bmv2
// interpreter, and links with latency and bandwidth. It substitutes
// for the paper's physical testbed (six servers and a Tofino switch,
// §VII) in the end-to-end experiments of Figure 14.
package netsim

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Time is simulated time in nanoseconds.
type Time float64

// Microsecond/Millisecond helpers.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1e3
	Millisecond Time = 1e6
	Second      Time = 1e9
)

// Event kinds. evFunc is the zero value so At-scheduled closures need
// no initialization; every other kind is a closure-free record whose
// meaning lives entirely in the packed index fields, dispatched by the
// switch in events.go. The steady-state network path (send → transmit
// → device pipeline → deliver → receive) schedules only typed events,
// so a million-host run allocates nothing per event.
const (
	evFunc     uint8 = iota // fn: generic closure (timers, tests, drivers)
	evHostSend              // node: host idx; buf: chain of framed packets
	evArrive                // link+dir: packet reaches the far end of a link
	evDevFwd                // node: device idx; port: unicast egress port
	evDevMcast              // node: device idx; port: multicast group id
	evHostRecv              // node: host idx; buf: frame for the Receive callback
	evTimer                 // node: host idx; fires the network's OnTimer hook
)

// event is one scheduled occurrence: a tagged union. Events live by
// value (40 bytes) in the Sim's slab; the queue orders only {key,
// slot} handles to them.
type event struct {
	at   Time
	buf  *pbuf  // pooled packet buffer (typed kinds)
	fn   func() // evFunc only
	link int32  // link index; in a free slab slot, the next free slot + 1
	node int32
	port int32
	kind uint8
	dir  uint8
}

// qent is a queue handle: an event's time key and its slab slot. It
// holds no pointers, so the collector never scans handles.
type qent struct {
	key  uint64 // math.Float64bits of the event time
	slot int32
}

// nbuckets is the radix queue's bucket count: bucket 0 for keys equal
// to the last popped key, bucket i for keys whose highest bit
// differing from it is bit i-1.
const nbuckets = 65

// bucket is a linked list of handle blocks, holding handles in push
// order from offset off in head to offset end in tail. An empty bucket
// holds no block: a drained block goes back to the Sim's pool at once
// and the next growing bucket takes it, so the queue's memory follows
// the pending count, not the sum of every bucket's high-water mark.
type bucket struct {
	head, tail *block
	off, end   int
}

// block holds 255 handles and the list link: 4088 bytes, of which the
// collector scans only the link.
type block struct {
	next *block
	q    [255]qent
}

const (
	blockLen   = len(block{}.q)
	blockBatch = 16 // blocks per pool allocation
)

// The event slab grows in fixed chunks, so growing it never copies
// the events already queued.
const (
	slabChunkShift = 12
	slabChunkMask  = 1<<slabChunkShift - 1
)

// Sim is the event engine. Events at equal times run in scheduling
// order, so runs are reproducible.
//
// The queue is a monotone radix heap (Ahuja, Mehlhorn, Orlin and
// Tarjan): no event is ever scheduled before the last popped time, so
// an event's bucket is fixed by the highest bit where its time key
// differs from that of the last popped event. Bit patterns of
// non-negative float64 times sort like the times themselves. A pop
// takes bucket 0, a FIFO of keys equal to the last one; when it is
// empty, the smallest key of the lowest non-empty bucket becomes the
// last key, and that bucket is redistributed into lower ones. An event
// moves at most once per bucket level instead of sifting through a
// heap on every pop. Equal keys always share a bucket in push order,
// so ties run in scheduling order without a sequence number.
//
// Buckets hold 16-byte pointer-free handles; the events themselves sit
// in a slab with a free list, and a popped event's slot is zeroed so
// the queue pins no closure or buffer. Steady state allocates nothing.
type Sim struct {
	b    [nbuckets]bucket
	last uint64 // key of the last popped event; only pop moves it
	mask uint64 // bit i-1 set when b[i] (i >= 1) is non-empty
	// lo and loMin cache the lowest non-empty bucket above 0 and its
	// smallest key (lo == nbuckets when there is none); stale when
	// !loOK. Peeks read them, so a peek never moves last.
	lo    int
	loMin uint64
	loOK  bool
	pool  *block    // free handle blocks, linked through next
	slab  [][]event // chunks of 1<<slabChunkShift events
	slots int32     // slab slots handed out so far
	free  int32     // first free slab slot + 1 (0: none)
	n     int       // pending events
	now   Time
	// exec dispatches typed (non-evFunc) events; a Network binds it to
	// the owning partition's dispatch switch. A bare Sim (exec nil)
	// carries closure events only.
	exec func(*event)
	// cur is the event being dispatched. Passing &cur (not the address
	// of a loop local) through the exec func value keeps the event off
	// the heap — escape analysis cannot see through exec. Dispatch must
	// not read the event after invoking a user callback that could pump
	// the simulator recursively.
	cur event
	// Processed counts executed events (a runaway guard for tests).
	Processed uint64
	// MaxEvents aborts runs beyond this many events (0 = no limit).
	MaxEvents uint64
	// PeakQueue is the high-water mark of pending events.
	PeakQueue int
	// ExecWall accumulates real time spent inside Run/StepNext, for
	// events-per-second reporting.
	ExecWall time.Duration
}

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// slot returns the slab entry of slot i.
func (s *Sim) slot(i int32) *event {
	return &s.slab[i>>slabChunkShift][i&slabChunkMask]
}

// push stores an event in the slab and files its handle in the bucket
// its time selects. Scheduling before the last popped time (or at a
// NaN time) would break the queue's order and panics.
func (s *Sim) push(e event) {
	if lastAt := Time(math.Float64frombits(s.last)); !(e.at >= lastAt) {
		panic(fmt.Sprintf("netsim: event at %v scheduled before last dispatched time %v", e.at, lastAt))
	}
	if e.at == 0 {
		e.at = 0 // -0 would key above every positive time
	}
	slot := s.free - 1
	if slot >= 0 {
		s.free = s.slot(slot).link
	} else {
		slot = s.slots
		s.slots++
		if int(slot>>slabChunkShift) == len(s.slab) {
			s.slab = append(s.slab, make([]event, 1<<slabChunkShift))
		}
	}
	*s.slot(slot) = e
	key := math.Float64bits(float64(e.at))
	i := bits.Len64(key ^ s.last)
	s.add(i, qent{key, slot})
	if i > 0 {
		s.mask |= 1 << (i - 1)
		if s.loOK && (i < s.lo || i == s.lo && key < s.loMin) {
			s.lo, s.loMin = i, key
		}
	}
	s.n++
	if s.n > s.PeakQueue {
		s.PeakQueue = s.n
	}
}

// add appends q to bucket i.
func (s *Sim) add(i int, q qent) {
	bk := &s.b[i]
	if bk.tail == nil {
		bk.head = s.newBlock()
		bk.tail = bk.head
	} else if bk.end == blockLen {
		bk.tail.next = s.newBlock()
		bk.tail, bk.end = bk.tail.next, 0
	}
	bk.tail.q[bk.end] = q
	bk.end++
}

// newBlock takes a block from the pool, refilling an empty pool with
// blockBatch blocks in one allocation.
func (s *Sim) newBlock() *block {
	if s.pool == nil {
		batch := new([blockBatch]block)
		for i := range batch {
			s.freeBlock(&batch[i])
		}
	}
	blk := s.pool
	s.pool, blk.next = blk.next, nil
	return blk
}

func (s *Sim) freeBlock(blk *block) {
	blk.next = s.pool
	s.pool = blk
}

// handles returns the live handles of blk, one of bk's blocks.
func (bk *bucket) handles(blk *block) []qent {
	q := blk.q[:]
	if blk == bk.tail {
		q = q[:bk.end]
	}
	if blk == bk.head {
		q = q[bk.off:]
	}
	return q
}

// findLo recomputes the cached lowest non-empty bucket above 0 and
// its smallest key.
func (s *Sim) findLo() {
	s.loOK = true
	if s.mask == 0 {
		s.lo, s.loMin = nbuckets, math.MaxUint64
		return
	}
	s.lo = bits.TrailingZeros64(s.mask) + 1
	m := uint64(math.MaxUint64)
	bk := &s.b[s.lo]
	for blk := bk.head; blk != nil; blk = blk.next {
		for _, q := range bk.handles(blk) {
			m = min(m, q.key)
		}
	}
	s.loMin = m
}

// peek reports the earliest pending time without moving last; ok is
// false when the queue is empty.
func (s *Sim) peek() (at Time, ok bool) {
	if s.b[0].head != nil {
		return Time(math.Float64frombits(s.last)), true
	}
	if !s.loOK {
		s.findLo()
	}
	if s.lo == nbuckets {
		return 0, false
	}
	return Time(math.Float64frombits(s.loMin)), true
}

// pop removes the earliest event (the queue must not be empty) from
// bucket 0, refilling that bucket first when it is empty. The event's
// slab slot is zeroed and joins the free list.
func (s *Sim) pop() event {
	b0 := &s.b[0]
	if b0.head == nil {
		s.refill()
	}
	slot := b0.head.q[b0.off].slot
	if b0.off++; b0.head == b0.tail && b0.off == b0.end {
		s.freeBlock(b0.head)
		*b0 = bucket{}
	} else if b0.off == blockLen {
		h := b0.head
		b0.head, b0.off = h.next, 0
		s.freeBlock(h)
	}
	p := s.slot(slot)
	e := *p
	*p = event{link: s.free}
	s.free = slot + 1
	s.n--
	return e
}

// refill makes the lowest non-empty bucket's minimum the last key and
// redistributes that bucket below it, returning each block to the
// pool as soon as it is read. The redistribution also finds the next
// lowest bucket and its minimum, unless every moved key equals the new
// last one.
func (s *Sim) refill() {
	if !s.loOK {
		s.findLo()
	}
	i, m := s.lo, s.loMin
	s.last = m
	s.mask &^= 1 << (i - 1)
	bk := &s.b[i]
	lo, loMin := nbuckets, uint64(math.MaxUint64)
	for blk := bk.head; blk != nil; {
		for _, q := range bk.handles(blk) {
			d := bits.Len64(q.key ^ m)
			s.add(d, q)
			if d > 0 {
				s.mask |= 1 << (d - 1)
				if d < lo || d == lo && q.key < loMin {
					lo, loMin = d, q.key
				}
			}
		}
		next := blk.next
		s.freeBlock(blk)
		blk = next
	}
	*bk = bucket{}
	if lo < nbuckets {
		s.lo, s.loMin = lo, loMin
	} else {
		s.loOK = false
	}
}

// At schedules fn after delay.
func (s *Sim) At(delay Time, fn func()) {
	s.post(delay, event{fn: fn})
}

// post schedules a typed event after delay.
func (s *Sim) post(delay Time, e event) {
	if delay < 0 {
		delay = 0
	}
	e.at = s.now + delay
	s.push(e)
}

// run1 pops and executes the minimum event.
func (s *Sim) run1() error {
	e := s.pop()
	s.now = e.at
	s.Processed++
	if s.MaxEvents > 0 && s.Processed > s.MaxEvents {
		return fmt.Errorf("netsim: event budget exceeded (%d)", s.MaxEvents)
	}
	if e.kind == evFunc {
		e.fn()
	} else {
		s.cur = e
		s.exec(&s.cur)
	}
	return nil
}

// Run processes events until the queue is empty or the given horizon
// is reached; with a horizon, the clock always lands exactly on it
// (even when the queue drains early), matching StepNext's timeout
// semantics. It returns an error if MaxEvents is exceeded.
func (s *Sim) Run(until Time) error {
	start := time.Now()
	defer func() { s.ExecWall += time.Since(start) }()
	for {
		at, ok := s.peek()
		if !ok {
			break
		}
		if until > 0 && at > until {
			s.now = until
			return nil
		}
		if err := s.run1(); err != nil {
			return err
		}
	}
	if until > s.now {
		s.now = until
	}
	return nil
}

// RunAll processes every pending event.
func (s *Sim) RunAll() error { return s.Run(0) }

// runWindow processes events strictly before wEnd (and not beyond
// until when until > 0): one conservative-lookahead round. Budget
// enforcement is left to the coordinator, which sums across
// partitions after each round.
func (s *Sim) runWindow(wEnd, until Time) {
	start := time.Now()
	for {
		at, ok := s.peek()
		if !ok || at >= wEnd || (until > 0 && at > until) {
			break
		}
		e := s.pop()
		s.now = e.at
		s.Processed++
		if e.kind == evFunc {
			e.fn()
		} else {
			s.cur = e
			s.exec(&s.cur)
		}
	}
	s.ExecWall += time.Since(start)
}

// StepNext executes the next pending event if it is scheduled at or
// before horizon (0 = any). It reports whether an event ran; when no
// eligible event exists and a horizon is given, the clock advances to
// the horizon so blocking receivers observe the timeout.
func (s *Sim) StepNext(horizon Time) (bool, error) {
	if at, ok := s.peek(); !ok || (horizon > 0 && at > horizon) {
		if horizon > s.now {
			s.now = horizon
		}
		return false, nil
	}
	start := time.Now()
	err := s.run1()
	s.ExecWall += time.Since(start)
	if err != nil {
		return false, err
	}
	return true, nil
}

// Pending reports queued events.
func (s *Sim) Pending() int { return s.n }

// EventsPerSec reports the event execution rate over the wall time
// spent inside Run/StepNext (0 until anything ran).
func (s *Sim) EventsPerSec() float64 {
	if s.ExecWall <= 0 {
		return 0
	}
	return float64(s.Processed) / s.ExecWall.Seconds()
}
