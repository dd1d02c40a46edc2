package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestTransferTimeExactReferenceQuantities(t *testing.T) {
	// The reference design's quantities must be exact in picoseconds.
	cases := []struct {
		name string
		bits int64
		rate Rate
		want Time
	}{
		{"one bit at 40Gb/s", 1, 40 * Gbps, 25},
		{"4KB batch at 2.56Tb/s", 4096 * 8, 2560 * Gbps, 12800},
		{"256B slice at 2.56Tb/s", 256 * 8, 2560 * Gbps, 800},
		{"1KB segment on 640Gb/s channel", 1024 * 8, 640 * Gbps, 12800},
		{"64B burst on 640Gb/s channel", 64 * 8, 640 * Gbps, 800},
		{"1500B packet on 640Gb/s channel", 1500 * 8, 640 * Gbps, 18750},
	}
	for _, c := range cases {
		if got := TransferTime(c.bits, c.rate); got != c.want {
			t.Errorf("%s: TransferTime=%d want %d", c.name, got, c.want)
		}
	}
}

func TestTransferTimeRoundsUp(t *testing.T) {
	// 3 bits at 1 Tb/s is exactly 3 ps; 3 bits at 2 Tb/s is 1.5 ps and
	// must round up to 2 ps.
	if got := TransferTime(3, Tbps); got != 3 {
		t.Fatalf("got %d want 3", got)
	}
	if got := TransferTime(3, 2*Tbps); got != 2 {
		t.Fatalf("got %d want 2", got)
	}
}

func TestTransferTimePanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for rate 0")
		}
	}()
	TransferTime(1, 0)
}

func TestRateOfInvertsTransferTime(t *testing.T) {
	bits := int64(512 * 1024 * 8)
	d := TransferTime(bits, 81920*Gbps)
	got := RateOf(bits, d)
	if math.Abs(float64(got)-81920e9)/81920e9 > 1e-6 {
		t.Fatalf("RateOf=%v want ~81.92Tb/s", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{5, "5ps"},
		{12800, "12.800ns"},
		{51200 * 1000, "51.200us"},
		{Millisecond * 51, "51.000ms"},
		{2 * Second, "2.000s"},
		{-5, "-5ps"},
		{math.MinInt64, "-9223372.037s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d: got %q want %q", int64(c.t), got, c.want)
		}
	}
}

func TestRateString(t *testing.T) {
	if got := (2560 * Gbps).String(); got != "2.56Tb/s" {
		t.Errorf("got %q", got)
	}
	if got := (40 * Gbps).String(); got != "40.00Gb/s" {
		t.Errorf("got %q", got)
	}
}

func TestSchedulerOrdering(t *testing.T) {
	var s Scheduler
	var order []int
	s.At(30, func() { order = append(order, 3) })
	s.At(10, func() { order = append(order, 1) })
	s.At(20, func() { order = append(order, 2) })
	s.At(10, func() { order = append(order, 11) }) // FIFO tie-break
	s.Run()
	want := []int{1, 11, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("order %v want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v want %v", order, want)
		}
	}
	if s.Now() != 30 {
		t.Fatalf("clock %v want 30", s.Now())
	}
}

func TestSchedulerRunUntilLeavesFutureEvents(t *testing.T) {
	var s Scheduler
	fired := 0
	s.At(10, func() { fired++ })
	s.At(100, func() { fired++ })
	s.RunUntil(50)
	if fired != 1 {
		t.Fatalf("fired=%d want 1", fired)
	}
	if s.Now() != 50 {
		t.Fatalf("clock=%v want 50", s.Now())
	}
	if s.Len() != 1 {
		t.Fatalf("pending=%d want 1", s.Len())
	}
	s.Run()
	if fired != 2 {
		t.Fatalf("fired=%d want 2", fired)
	}
}

func TestSchedulerCascade(t *testing.T) {
	// Events scheduled from inside events run in the right order.
	var s Scheduler
	var times []Time
	s.At(5, func() {
		times = append(times, s.Now())
		s.After(5, func() { times = append(times, s.Now()) })
		s.After(1, func() { times = append(times, s.Now()) })
	})
	s.Run()
	want := []Time{5, 6, 10}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times %v want %v", times, want)
		}
	}
}

func TestSchedulerPastPanics(t *testing.T) {
	var s Scheduler
	s.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		s.At(5, func() {})
	})
	s.Run()
}

func TestSchedulerHeapProperty(t *testing.T) {
	// Random insertion order must still pop in sorted order.
	rng := NewRNG(42)
	var s Scheduler
	var want []Time
	for i := 0; i < 1000; i++ {
		at := Time(rng.Intn(10000))
		want = append(want, at)
		s.At(at, func() {})
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	var got []Time
	for s.Len() > 0 {
		prev := s.Now()
		s.Step()
		if s.Now() < prev {
			t.Fatal("clock went backwards")
		}
		got = append(got, s.Now())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order mismatch at %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestTicker(t *testing.T) {
	var s Scheduler
	var ticks []Time
	s.Ticker(3, 10, func(now Time) bool {
		ticks = append(ticks, now)
		return len(ticks) < 4
	})
	s.Run()
	want := []Time{3, 13, 23, 33}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks %v want %v", ticks, want)
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(8)
	same := true
	a2 := NewRNG(7)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGUniformity(t *testing.T) {
	r := NewRNG(123)
	const n, buckets = 100000, 16
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	want := float64(n) / buckets
	for i, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.05 {
			t.Errorf("bucket %d: count %d deviates >5%% from %v", i, c, want)
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			f := r.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := NewRNG(seed)
		n := 1 + int(seed%64)
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(99)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	mean := sum / n
	if math.Abs(mean-1) > 0.02 {
		t.Fatalf("exp mean %v want ~1", mean)
	}
}

func TestRNGPickWeights(t *testing.T) {
	r := NewRNG(5)
	w := []float64{1, 3, 6}
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Pick(w)]++
	}
	for i, frac := range []float64{0.1, 0.3, 0.6} {
		got := float64(counts[i]) / n
		if math.Abs(got-frac) > 0.02 {
			t.Errorf("weight %d: frequency %v want ~%v", i, got, frac)
		}
	}
}

func TestRNGForkIndependence(t *testing.T) {
	parent := NewRNG(1)
	child := parent.Fork()
	// Draw from the child; the parent stream after the fork must be
	// fully determined by the fork point, not by child draws.
	p1 := NewRNG(1)
	_ = p1.Fork()
	for i := 0; i < 50; i++ {
		child.Uint64()
	}
	for i := 0; i < 50; i++ {
		if parent.Uint64() != p1.Uint64() {
			t.Fatal("parent stream perturbed by child draws")
		}
	}
}

func TestRNGPareto(t *testing.T) {
	r := NewRNG(77)
	for i := 0; i < 1000; i++ {
		v := r.Pareto(1.5, 2)
		if v < 2 {
			t.Fatalf("Pareto sample %v below xmin", v)
		}
	}
}

// handlerRecorder records intrusive-event dispatches.
type handlerRecorder struct {
	codes []int
	args  []int
	ps    []any
	times []Time
	sched *Scheduler
}

func (h *handlerRecorder) HandleEvent(code, a int, p any) {
	h.codes = append(h.codes, code)
	h.args = append(h.args, a)
	h.ps = append(h.ps, p)
	h.times = append(h.times, h.sched.Now())
}

func TestIntrusiveEvents(t *testing.T) {
	s := &Scheduler{}
	h := &handlerRecorder{sched: s}
	payload := &struct{ x int }{x: 9}
	s.AtEvent(30, h, 3, 300, nil)
	s.AtEvent(10, h, 1, 100, payload)
	s.AfterEvent(20, h, 2, 200, nil)
	s.Run()
	if len(h.codes) != 3 {
		t.Fatalf("dispatched %d events", len(h.codes))
	}
	for i, want := range []int{1, 2, 3} {
		if h.codes[i] != want || h.args[i] != want*100 {
			t.Fatalf("event %d: code %d arg %d", i, h.codes[i], h.args[i])
		}
	}
	if h.ps[0] != payload || h.ps[1] != nil {
		t.Fatal("payloads not delivered")
	}
	if h.times[0] != 10 || h.times[1] != 20 || h.times[2] != 30 {
		t.Fatalf("dispatch times %v", h.times)
	}
}

// TestIntrusiveAndClosureInterleave: both event kinds share one heap
// and one (time, seq) order.
func TestIntrusiveAndClosureInterleave(t *testing.T) {
	s := &Scheduler{}
	h := &handlerRecorder{sched: s}
	var order []int
	s.At(5, func() { order = append(order, -1) })
	s.AtEvent(5, h, 7, 0, nil) // same time: scheduled later, fires later
	s.At(6, func() { order = append(order, -2) })
	s.Run()
	if len(order) != 2 || order[0] != -1 || order[1] != -2 {
		t.Fatalf("closure order %v", order)
	}
	if len(h.codes) != 1 || h.times[0] != 5 {
		t.Fatalf("intrusive dispatch %v at %v", h.codes, h.times)
	}
	if s.Events() != 3 {
		t.Fatalf("events executed %d", s.Events())
	}
}

func TestIntrusiveEventPastPanics(t *testing.T) {
	s := &Scheduler{}
	s.At(10, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling an intrusive event in the past")
		}
	}()
	s.AtEvent(5, &handlerRecorder{sched: s}, 0, 0, nil)
}
