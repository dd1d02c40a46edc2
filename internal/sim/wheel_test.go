package sim

import (
	"container/heap"
	"fmt"
	"testing"
)

// refEvent is one pending event of refScheduler.
type refEvent struct {
	at      Time
	seq     uint64
	fn      func()
	h       Handler
	code, a int
}

// refHeap is a binary min-heap over (at, seq).
type refHeap []refEvent

func (q refHeap) Len() int { return len(q) }
func (q refHeap) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refHeap) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refHeap) Push(x any)   { *q = append(*q, x.(refEvent)) }
func (q *refHeap) Pop() any {
	old := *q
	ev := old[len(old)-1]
	*q = old[:len(old)-1]
	return ev
}

// refScheduler is the reference event queue the timing wheel is
// checked against: a plain binary heap ordered by (at, seq), with
// Scheduler's clock semantics and nothing else.
type refScheduler struct {
	now Time
	seq uint64
	q   refHeap
}

func (r *refScheduler) Now() Time { return r.now }
func (r *refScheduler) Len() int  { return len(r.q) }

func (r *refScheduler) push(ev refEvent) {
	if ev.at < r.now {
		panic("ref: scheduling in the past")
	}
	r.seq++
	ev.seq = r.seq
	heap.Push(&r.q, ev)
}

func (r *refScheduler) At(t Time, fn func())    { r.push(refEvent{at: t, fn: fn}) }
func (r *refScheduler) After(d Time, fn func()) { r.At(r.now+d, fn) }
func (r *refScheduler) AtEvent(t Time, h Handler, code, a int, _ any) {
	r.push(refEvent{at: t, h: h, code: code, a: a})
}
func (r *refScheduler) AfterEvent(d Time, h Handler, code, a int, p any) {
	r.AtEvent(r.now+d, h, code, a, p)
}

func (r *refScheduler) NextTime() (Time, bool) {
	if len(r.q) == 0 {
		return 0, false
	}
	return r.q[0].at, true
}

func (r *refScheduler) Step() bool {
	if len(r.q) == 0 {
		return false
	}
	ev := heap.Pop(&r.q).(refEvent)
	r.now = ev.at
	if ev.fn != nil {
		ev.fn()
	} else {
		ev.h.HandleEvent(ev.code, ev.a, nil)
	}
	return true
}

func (r *refScheduler) RunUntil(horizon Time) {
	for {
		if at, ok := r.NextTime(); !ok || at > horizon {
			break
		}
		r.Step()
	}
	if r.now < horizon {
		r.now = horizon
	}
}

func (r *refScheduler) Run() {
	for r.Step() {
	}
}

// eventQueue is the surface the differential workload drives, met by
// both Scheduler and refScheduler.
type eventQueue interface {
	Now() Time
	Len() int
	At(t Time, fn func())
	After(d Time, fn func())
	AtEvent(t Time, h Handler, code, a int, p any)
	AfterEvent(d Time, h Handler, code, a int, p any)
	NextTime() (Time, bool)
	RunUntil(horizon Time)
	Run()
}

// diffRecord is one observation of a differential run: an event firing
// (id > 0) or a probe of the queue between RunUntil slices (id <= 0).
type diffRecord struct {
	id int
	at Time
}

// Probe ids: the clock, the pending count and the next event time
// after a RunUntil slice.
const (
	probeNow = -iota
	probeLen
	probeNext
)

// diffHandler dispatches intrusive events of the differential workload:
// code is the event id, a its remaining reschedule hops.
type diffHandler struct{ fire func(id, hops int) }

func (h *diffHandler) HandleEvent(code, a int, _ any) { h.fire(code, a) }

// diffWorkload drives q through a seeded random workload and returns
// everything observable about it. Delays are drawn at every wheel level
// and past the 2^48 ps wheel span; handlers reschedule through every
// scheduling call, sometimes several events at one far time so that
// cascades must keep same-time events in seq order; and the run is cut
// into RunUntil slices at random horizons with new events scheduled
// from outside between slices.
func diffWorkload(q eventQueue, seed uint64) []diffRecord {
	rng := NewRNG(seed)
	var out []diffRecord
	delay := func() Time {
		switch k := rng.Intn(wheelLevels + 3); {
		case k == 0:
			return 0
		case k <= wheelLevels:
			return Time(rng.Intn(1 << (wheelBits * k)))
		case k == wheelLevels+1:
			return Time(rng.Intn(1 << 10)) // near ties in one window
		default:
			return 1<<48 + Time(rng.Intn(1<<40)) // past the wheel span
		}
	}
	lastID := 0
	var schedule func(hops int)
	fire := func(id, hops int) {
		out = append(out, diffRecord{id, q.Now()})
		if hops > 0 {
			for n := rng.Intn(3); n > 0; n-- {
				schedule(hops - 1)
			}
		}
	}
	h := &diffHandler{fire: fire}
	closure := func(hops int) func() {
		lastID++
		id := lastID
		return func() { fire(id, hops) }
	}
	intrusive := func() int {
		lastID++
		return lastID
	}
	schedule = func(hops int) {
		d := delay()
		switch rng.Intn(5) {
		case 0:
			q.At(q.Now()+d, closure(hops))
		case 1:
			q.After(d, closure(hops))
		case 2:
			q.AtEvent(q.Now()+d, h, intrusive(), hops, nil)
		case 3:
			q.AfterEvent(d, h, intrusive(), hops, nil)
		default:
			// A burst at one time, mixing closures and intrusive events.
			t := q.Now() + d
			for n := 2 + rng.Intn(4); n > 0; n-- {
				if rng.Intn(2) == 0 {
					q.At(t, closure(0))
				} else {
					q.AtEvent(t, h, intrusive(), 0, nil)
				}
			}
		}
	}
	for i := 0; i < 128; i++ {
		schedule(10)
	}
	for slice := 0; slice < 48 && q.Len() > 0; slice++ {
		horizon := q.Now() + delay()
		if rng.Intn(8) == 0 {
			horizon = q.Now() // an empty slice must not move the clock
		}
		q.RunUntil(horizon)
		next, ok := q.NextTime()
		if !ok {
			next = -1
		}
		out = append(out,
			diffRecord{probeNow, q.Now()},
			diffRecord{probeLen, Time(q.Len())},
			diffRecord{probeNext, next})
		if rng.Intn(2) == 0 {
			schedule(3)
		}
	}
	q.Run()
	return append(out, diffRecord{probeNow, q.Now()}, diffRecord{probeLen, Time(q.Len())})
}

// TestWheelHeapDifferentialRandom is the scheduler's core differential
// test: across many seeds, a random workload of every scheduling call,
// delay level and RunUntil slicing must be observed identically on the
// timing wheel and on the reference heap.
func TestWheelHeapDifferentialRandom(t *testing.T) {
	for seed := uint64(1); seed <= 32; seed++ {
		var s Scheduler
		wheel := diffWorkload(&s, seed)
		ref := diffWorkload(&refScheduler{}, seed)
		// The workload must reach the cascade and overflow paths.
		if st := s.Stats(); st.Events < 500 || st.Cascades == 0 || st.Overflowed == 0 {
			t.Fatalf("seed %d: workload too weak: %+v", seed, st)
		}
		for i := range min(len(wheel), len(ref)) {
			if wheel[i] != ref[i] {
				t.Fatalf("seed %d: record %d differs: wheel %+v, reference %+v", seed, i, wheel[i], ref[i])
			}
		}
		if len(wheel) != len(ref) {
			t.Fatalf("seed %d: wheel made %d records, reference %d", seed, len(wheel), len(ref))
		}
	}
}

// TestWheelCrossWindowCascade pins the cascade path: events placed in
// higher-level slots must drain in (time, seq) order as the clock
// crosses 256^k window boundaries.
func TestWheelCrossWindowCascade(t *testing.T) {
	var s Scheduler
	// One event per level: same low digits, increasing high digits, so
	// each lives one level up from the previous. Scheduled in reverse
	// time order to exercise out-of-order insertion, plus same-time
	// pairs to check seq ordering across a cascade.
	times := []Time{
		5,                    // level 0
		5 + 1<<8,             // level 1
		5 + 1<<16,            // level 2
		5 + 1<<24,            // level 3
		5 + 1<<32,            // level 4
		5 + 1<<40,            // level 5
		5 + 1<<40, 5 + 1<<16, // duplicates: seq must order them after the originals
	}
	var got []Time
	order := make([]int, 0, len(times))
	for i := len(times) - 1; i >= 0; i-- {
		i := i
		s.At(times[i], func() {
			got = append(got, s.Now())
			order = append(order, i)
		})
	}
	s.Run()
	want := []Time{5, 5 + 1<<8, 5 + 1<<16, 5 + 1<<16, 5 + 1<<24, 5 + 1<<32, 5 + 1<<40, 5 + 1<<40}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d fired at %d, want %d (order %v)", i, got[i], want[i], order)
		}
	}
	// Same-time pairs: the earlier-scheduled one fires first. times[7]
	// duplicates times[2] and was scheduled before it in the reverse
	// loop, so it must fire first.
	if order[2] != 7 || order[3] != 2 {
		t.Fatalf("same-time pair at 5+2^16 fired as %d,%d; want 7,2 (scheduling order)", order[2], order[3])
	}
}

// TestWheelOverflowFarFuture pins the calendar-queue fallback: events
// beyond the 2^48 ps wheel span (e.g. Forever sentinels) must park in
// the overflow list and still fire, in order, after the wheel drains.
func TestWheelOverflowFarFuture(t *testing.T) {
	var s Scheduler
	var got []Time
	record := func() { got = append(got, s.Now()) }
	s.At(Forever, record)    // far beyond the span
	s.At(1<<50, record)      // beyond the span, nearer
	s.At(100, record)        // in the wheel
	s.At((1<<48)+12, record) // just past the span from t=0
	if len(s.overflow) != 3 {
		t.Fatalf("overflow holds %d events, want 3", len(s.overflow))
	}
	s.Run()
	want := []Time{100, (1 << 48) + 12, 1 << 50, Forever}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d fired at %d, want %d", i, got[i], want[i])
		}
	}
	if s.Now() != Forever {
		t.Fatalf("clock at %d, want Forever", s.Now())
	}
}

// TestWheelOverflowSameTimeSeqOrder checks that overflow reinsertion
// preserves scheduling order for same-time events.
func TestWheelOverflowSameTimeSeqOrder(t *testing.T) {
	var s Scheduler
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(Forever, func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("overflow events fired as %v, want scheduling order", got)
		}
	}
}

// TestWheelRunUntilClampThenSchedule is the regression for the
// stale-level bug: RunUntil must move the wheel clock to the horizon
// via a cascade (not a bare assignment), or events already in the
// wheel get stranded at levels computed against the old clock.
func TestWheelRunUntilClampThenSchedule(t *testing.T) {
	var s Scheduler
	var got []Time
	record := func() { got = append(got, s.Now()) }
	// Pending events on both sides of a far horizon, at several levels.
	s.At(50, record)
	s.At(1<<20+3, record)
	s.At(1<<36+9, record)
	// Clamp the clock deep into the wheel's range with events pending.
	s.RunUntil(1 << 30)
	if s.Now() != 1<<30 {
		t.Fatalf("clock at %d after RunUntil, want %d", s.Now(), Time(1<<30))
	}
	if len(got) != 2 {
		t.Fatalf("ran %d events before horizon, want 2", len(got))
	}
	// Schedule into the gap between the horizon and the far event.
	s.At(1<<30+5, record)
	s.After(1, record)
	s.Run()
	want := []Time{50, 1<<20 + 3, 1<<30 + 1, 1<<30 + 5, 1<<36 + 9}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d (%v)", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d fired at %d, want %d", i, got[i], want[i])
		}
	}
}

// TestWheelRunUntilRepeatedClamps advances the clock across many
// horizons with no events in between — the lockstep-epoch driving
// pattern — and checks nothing is lost or reordered.
func TestWheelRunUntilRepeatedClamps(t *testing.T) {
	var s Scheduler
	var got []Time
	for i := 1; i <= 20; i++ {
		tt := Time(i * i * i * 997)
		s.At(tt, func() { got = append(got, s.Now()) })
	}
	end := Time(20 * 20 * 20 * 997)
	for e := Time(1); e <= 64; e++ {
		s.RunUntil(end / 64 * e)
	}
	s.Run()
	if len(got) != 20 {
		t.Fatalf("ran %d events, want 20", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("events out of order: %v", got)
		}
	}
}

// TestSchedulerZeroAlloc is the alloc budget for the event core: on a
// warm scheduler, intrusive push + pop must not allocate at all.
func TestSchedulerZeroAlloc(t *testing.T) {
	var s Scheduler
	h := &countingHandler{}
	// Warm up: grow the arena and free list.
	for i := 0; i < 64; i++ {
		s.AtEvent(Time(i), h, 1, i, nil)
	}
	s.Run()
	per := testing.AllocsPerRun(1000, func() {
		s.AfterEvent(3, h, 1, 0, nil)
		s.AfterEvent(900, h, 2, 1, nil)
		s.Run()
	})
	if per != 0 {
		t.Errorf("%g allocs per push+pop cycle, want 0", per)
	}
}

// benchDelays cycles through delays at wheel levels 0, 1 and 2.
var benchDelays = func() []Time {
	rng := NewRNG(1)
	d := make([]Time, 1024)
	for i := range d {
		l := i % 3
		d[i] = Time(1<<(wheelBits*l) + rng.Intn(1<<(wheelBits*(l+1))-1<<(wheelBits*l)))
	}
	return d
}()

// rescheduler keeps the scheduler's occupancy constant: every event it
// handles schedules one more at the next delay of benchDelays.
type rescheduler struct {
	s *Scheduler
	i int
}

func (r *rescheduler) HandleEvent(code, a int, p any) {
	r.i++
	r.s.AfterEvent(benchDelays[r.i&(len(benchDelays)-1)], r, code, a, p)
}

// BenchmarkScheduler measures one intrusive push + pop on a warm
// scheduler holding a constant number of pending events, with delays
// spread over wheel levels 0-2.
func BenchmarkScheduler(b *testing.B) {
	for _, pending := range []int{64, 4096} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			var s Scheduler
			r := &rescheduler{s: &s}
			for i := 0; i < pending; i++ {
				s.AfterEvent(benchDelays[i&(len(benchDelays)-1)], r, 0, i, nil)
			}
			for i := 0; i < 4*pending; i++ {
				s.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		})
	}
}

type countingHandler struct{ n int }

func (c *countingHandler) HandleEvent(code, a int, p any) { c.n++ }
