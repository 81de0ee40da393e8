package netsim

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// The event queue's contract is that events run in (time, scheduling
// order). These tests hold the radix queue to a reference that keeps
// its pending events in scheduling order and always runs the first
// one with the earliest time: a stable sort by (time, scheduling
// order), evaluated one event at a time so events may schedule more.

// refSim is the reference engine: the Sim's Run/StepNext/At semantics
// over a plain slice.
type refSim struct {
	q   []refEvent
	now Time
}

type refEvent struct {
	at Time
	fn func()
}

func (r *refSim) At(delay Time, fn func()) {
	if delay < 0 {
		delay = 0
	}
	r.q = append(r.q, refEvent{r.now + delay, fn})
}

func (r *refSim) Now() Time { return r.now }

// first returns the index of the earliest pending event, the first
// scheduled among equal times (-1 when empty).
func (r *refSim) first() int {
	best := -1
	for i := range r.q {
		if best < 0 || r.q[i].at < r.q[best].at {
			best = i
		}
	}
	return best
}

func (r *refSim) run1(i int) {
	e := r.q[i]
	r.q = append(r.q[:i], r.q[i+1:]...)
	r.now = e.at
	e.fn()
}

func (r *refSim) Run(until Time) error {
	for i := r.first(); i >= 0; i = r.first() {
		if until > 0 && r.q[i].at > until {
			r.now = until
			return nil
		}
		r.run1(i)
	}
	if until > r.now {
		r.now = until
	}
	return nil
}

func (r *refSim) StepNext(horizon Time) (bool, error) {
	i := r.first()
	if i < 0 || (horizon > 0 && r.q[i].at > horizon) {
		if horizon > r.now {
			r.now = horizon
		}
		return false, nil
	}
	r.run1(i)
	return true, nil
}

// engine is what an order script drives: *Sim or *refSim.
type engine interface {
	At(Time, func())
	Run(Time) error
	StepNext(Time) (bool, error)
	Now() Time
}

// delayOf maps a script byte to a delay from one of four classes:
// zero (ties), eighths of a nanosecond, whole nanoseconds, and jumps
// beyond a microsecond.
func delayOf(b byte) Time {
	switch b & 3 {
	case 0:
		return 0
	case 1:
		return Time(b>>2) * 0.125
	case 2:
		return Time(b >> 2)
	default:
		return 1000 + Time(b>>2)*61.5
	}
}

type ran struct {
	id int
	at Time
}

// maxScriptEvents bounds one script's events, so scripts terminate.
const maxScriptEvents = 1500

// runScript interprets data on e and returns the executed events in
// order. Top-level operations are (op, arg) byte pairs: schedule a
// root event, Run to a horizon (possibly stopping early with events
// pending), StepNext, or schedule a burst of zero-delay roots. Each
// event, when it runs, schedules up to two children whose count and
// delays are drawn from data by the event's id, so the program is the
// same whatever order an engine runs events in.
func runScript(e engine, data []byte) []ran {
	var log []ran
	ids := 0
	param := func(id, k int) byte {
		return data[(id*5+k*3)%len(data)] ^ byte(id*131)
	}
	var spawn func(delay Time)
	spawn = func(delay Time) {
		id := ids
		ids++
		e.At(delay, func() {
			log = append(log, ran{id, e.Now()})
			for k := 0; k < int(param(id, 0)%3) && ids < maxScriptEvents; k++ {
				spawn(delayOf(param(id, k+1)))
			}
		})
	}
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i], data[i+1]
		switch op % 4 {
		case 0:
			spawn(delayOf(arg))
		case 1:
			e.Run(e.Now() + delayOf(arg))
		case 2:
			e.StepNext(e.Now() + delayOf(arg))
		case 3:
			for j := 0; j < int(arg%8) && ids < maxScriptEvents; j++ {
				spawn(0)
			}
		}
	}
	e.Run(0)
	return log
}

// checkOrder runs data on a Sim and on the reference and compares the
// event logs, final clocks and leftover queues.
func checkOrder(t *testing.T, data []byte) {
	t.Helper()
	var s Sim
	var r refSim
	got, want := runScript(&s, data), runScript(&r, data)
	if !reflect.DeepEqual(got, want) {
		for i := range got {
			if i >= len(want) || got[i] != want[i] {
				t.Fatalf("event %d of %d: ran %+v, reference %+v", i, len(want), got[i:min(i+3, len(got))], want[i:min(i+3, len(want))])
			}
		}
		t.Fatalf("ran %d events, reference %d", len(got), len(want))
	}
	if s.Now() != r.Now() || s.Pending() != 0 {
		t.Fatalf("final clock %v (reference %v), %d events left", s.Now(), r.Now(), s.Pending())
	}
}

// orderCases are hand-shaped scripts for the schedules the radix queue
// is most likely to get wrong; they also seed FuzzSimOrder.
var orderCases = []struct {
	name string
	data []byte
}{
	// Zero-delay roots and bursts at one instant, with children that
	// post at zero delay into bucket 0 while later events wait above.
	{"ties", []byte{0, 0, 3, 7, 0, 4, 0, 0, 3, 5, 1, 0, 0, 8, 3, 7, 0, 0, 2, 0, 3, 3}},
	// Eighth-of-a-nanosecond fractions next to microsecond jumps.
	{"fractions-and-jumps", []byte{0, 1, 0, 5, 0, 3, 0, 253, 0, 9, 0, 127, 0, 33, 0, 7, 0, 255, 0, 13}},
	// Run stops early with a microsecond-away event pending; posts then
	// land in the gap before it, below the cached minimum.
	{"early-stop-gap", []byte{0, 255, 0, 2, 1, 6, 0, 1, 0, 0, 0, 5, 1, 10, 0, 2, 2, 0, 0, 1, 3, 4, 1, 3, 0, 1, 1, 0}},
}

func TestSimOrderDifferential(t *testing.T) {
	for _, c := range orderCases {
		t.Run(c.name, func(t *testing.T) { checkOrder(t, c.data) })
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		data := make([]byte, 2+rng.Intn(120))
		rng.Read(data)
		checkOrder(t, data)
	}
}

// TestSimBucketZeroKeepsCachedMin: a zero-delay post lands in bucket 0
// while later events wait in higher buckets; it must not replace their
// cached minimum, and the pops after it must find them.
func TestSimBucketZeroKeepsCachedMin(t *testing.T) {
	var s Sim
	var got []Time
	log := func() { got = append(got, s.Now()) }
	s.At(10, func() {
		log()
		s.At(0, log)
		s.At(0, log)
	})
	s.At(20, log)
	s.At(30, log)
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if want := []Time{10, 10, 10, 20, 30}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ran at %v, want %v", got, want)
	}
}

// TestSimGapAfterEarlyStop: after Run(until) stops short of a pending
// event, a post into the gap must run first, and a peek must not have
// moved the queue's base past it.
func TestSimGapAfterEarlyStop(t *testing.T) {
	var s Sim
	var got []Time
	log := func() { got = append(got, s.Now()) }
	s.At(5, log)
	s.At(5000, log)
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	s.At(0, log)    // 100
	s.At(3000, log) // 3100
	s.At(900, log)  // 1000
	if ran, err := s.StepNext(0); !ran || err != nil {
		t.Fatalf("StepNext: ran=%v err=%v", ran, err)
	}
	s.At(0.125, log) // 100.125
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if want := []Time{5, 100, 100.125, 1000, 3100, 5000}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ran at %v, want %v", got, want)
	}
}

// TestSimMonotonicityGuard pins the queue's precondition: scheduling
// before the last dispatched time, or at a NaN time, panics with both
// times named; -0 is scheduled as +0.
func TestSimMonotonicityGuard(t *testing.T) {
	mustPanic := func(t *testing.T, f func(), want ...string) {
		t.Helper()
		defer func() {
			t.Helper()
			r := recover()
			msg, _ := r.(string)
			for _, w := range want {
				if !strings.Contains(msg, w) {
					t.Fatalf("panic %q, want it to name %q", msg, w)
				}
			}
		}()
		f()
		t.Fatal("no panic")
	}
	t.Run("past", func(t *testing.T) {
		var s Sim
		s.At(100, func() {})
		if err := s.RunAll(); err != nil {
			t.Fatal(err)
		}
		mustPanic(t, func() { s.push(event{at: 42.5}) }, "42.5", "100")
	})
	t.Run("nan", func(t *testing.T) {
		var s Sim
		mustPanic(t, func() { s.At(Time(math.NaN()), func() {}) }, "NaN", "0")
	})
	t.Run("negative-zero", func(t *testing.T) {
		var s Sim
		var got []Time
		s.At(1, func() { got = append(got, s.Now()) })
		s.push(event{at: Time(math.Copysign(0, -1)), fn: func() { got = append(got, s.Now()) }})
		if err := s.RunAll(); err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 || got[0] != 0 || math.Signbit(float64(got[0])) || got[1] != 1 {
			t.Fatalf("ran at %v, want [+0 1]", got)
		}
	})
}

func FuzzSimOrder(f *testing.F) {
	for _, c := range orderCases {
		f.Add(c.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 1024 {
			return
		}
		checkOrder(t, data)
	})
}

// TestPartitionedMailboxIntoGap: cross-LP arrivals land at the barrier
// below the destination LP's next pending event (its own hosts only
// start 40µs in), both from the first windows and after a Run(until)
// stop followed by fresh posts. The partitioned run must still
// hash-chain-match the serial one.
func TestPartitionedMailboxIntoGap(t *testing.T) {
	const late = 40 * Microsecond
	run := func(k int) (chainRun, Time) {
		n, _ := chainNet(t, 4, 3)
		n.EnableTrace()
		if k > 0 {
			if err := n.SetPartitions(k); err != nil {
				t.Fatal(err)
			}
		}
		// Devices 1-2 start at once; devices 3-4 wait, so early
		// arrivals from device 2 sit below the pending timers of the
		// LPs that own devices 3-4.
		firstRecv := Time(math.Inf(1))
		for i := int32(0); i < n.hs.count; i++ {
			h := n.hs.at(i)
			start := 100*Nanosecond + Time(137*i)
			if i >= 6 {
				start += late
				h.SetReceive(func(h *Host, _ []byte) { firstRecv = min(firstRecv, h.Now()) })
			}
			h.StartTimer(start)
		}
		if k >= 2 {
			for _, d := range n.devs[2:] {
				if at, ok := n.parts[d.part].sim.peek(); !ok || at < late {
					t.Fatalf("k=%d: LP %d of device %d pending from %v, want >= %v", k, d.part, d.ID, at, late)
				}
			}
		}
		if err := n.Run(10 * Microsecond); err != nil {
			t.Fatal(err)
		}
		// Early stop; these posts land below partition 1's 40µs timers.
		for i := int32(6); i < n.hs.count; i++ {
			n.hs.at(i).StartTimer(Time(500 + 61*i))
		}
		if err := n.RunAll(); err != nil {
			t.Fatal(err)
		}
		return chainRun{
			hash:      n.TraceHash(),
			delivered: n.PacketsDelivered,
			processed: n.TotalProcessed(),
			now:       n.Now(),
		}, firstRecv
	}
	serial, first := run(0)
	if serial.delivered == 0 || first >= late {
		t.Fatalf("scenario premise: delivered %d, first late-side arrival at %v (want < %v)", serial.delivered, first, late)
	}
	for _, k := range []int{1, 2, 4} {
		if got, _ := run(k); got != serial {
			t.Errorf("k=%d diverged from serial: %+v vs %+v", k, got, serial)
		}
	}
}
