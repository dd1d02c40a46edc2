package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"
	"testing"

	"pbrouter/internal/sim"
)

func TestNewTracerRejectsNonPositiveSample(t *testing.T) {
	for _, n := range []int{0, -5} {
		if _, err := NewTracer(n); err == nil {
			t.Fatalf("NewTracer(%d) accepted", n)
		}
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	if tr.Sampled(0) {
		t.Fatal("nil tracer sampled a packet")
	}
	tr.Span("x", 0, 0, 1, 2, 0)
	tr.Instant("y", 0, 0, 1, 0)
	if tr.Events() != nil {
		t.Fatal("nil tracer recorded events")
	}
	if err := tr.WriteJSON(nil); err != nil {
		t.Fatal(err)
	}
}

func TestSamplingByPacketID(t *testing.T) {
	tr, _ := NewTracer(4)
	for id := uint64(0); id < 8; id++ {
		tr.Span("s", 0, 0, 1, 2, id)
	}
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("%d spans recorded, want 2 (ids 0, 4)", len(evs))
	}
	if evs[0].Pkt != 0 || evs[1].Pkt != 4 {
		t.Fatalf("sampled ids %d, %d", evs[0].Pkt, evs[1].Pkt)
	}
}

// TestTraceGoldenJSON pins the Chrome trace-event schema: complete "X"
// events with exact decimal microsecond timestamps, sorted by
// simulated time regardless of recording order.
func TestTraceGoldenJSON(t *testing.T) {
	tr, _ := NewTracer(1)
	// Recorded out of order on purpose: rendering must sort.
	tr.Span("hbm", 1, 3, 2_000_000, 3_500_000, 7)
	tr.Instant("drop", 0, 2, 1_000_000, 4)
	var b strings.Builder
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	want := `{"displayTimeUnit":"ns","traceEvents":[` +
		`{"name":"drop","cat":"packet","ph":"X","ts":1,"dur":0,"pid":0,"tid":2,"args":{"pkt":4}},` +
		`{"name":"hbm","cat":"packet","ph":"X","ts":2,"dur":1.5,"pid":1,"tid":3,"args":{"pkt":7}}` +
		"]}\n"
	if b.String() != want {
		t.Fatalf("trace schema changed:\ngot  %s\nwant %s", b.String(), want)
	}
}

func TestTraceSortIsDeterministic(t *testing.T) {
	mk := func(order []int) string {
		tr, _ := NewTracer(1)
		spans := []Span{
			{Name: "a", Proc: 0, Track: 1, Start: 10, End: 20, Pkt: 1},
			{Name: "b", Proc: 0, Track: 0, Start: 10, End: 20, Pkt: 2},
			{Name: "c", Proc: 1, Track: 0, Start: 5, End: 6, Pkt: 3},
		}
		for _, i := range order {
			s := spans[i]
			tr.Span(s.Name, s.Proc, s.Track, s.Start, s.End, s.Pkt)
		}
		var b strings.Builder
		tr.WriteJSON(&b)
		return b.String()
	}
	if mk([]int{0, 1, 2}) != mk([]int{2, 1, 0}) {
		t.Fatal("rendered trace depends on recording order")
	}
}

func TestMergeTracersChecksSampleRate(t *testing.T) {
	a, _ := NewTracer(2)
	b, _ := NewTracer(4)
	if _, err := MergeTracers(a, b); err == nil {
		t.Fatal("merged tracers with different sample rates")
	}
	c, _ := NewTracer(2)
	a.Span("x", 0, 0, 1, 2, 0)
	c.Span("y", 1, 0, 3, 4, 2)
	m, err := MergeTracers(a, nil, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Events()) != 2 {
		t.Fatalf("%d merged events", len(m.Events()))
	}
}

// TestAppendMicros pins the exact decimal-picosecond timestamp text,
// including fractions whose trailing zeros are trimmed.
func TestAppendMicros(t *testing.T) {
	cases := []struct {
		ps   int64
		want string
	}{
		{0, "0"},
		{1, "0.000001"},
		{10, "0.00001"},
		{-1, "-0.000001"},
		{100_000, "0.1"},
		{999_999, "0.999999"},
		{1_000_000, "1"},
		{12_345_678, "12.345678"},
		{2_500_000, "2.5"},
		{3_040_000, "3.04"},
		{7_000_100, "7.0001"},
		{-1_500_000, "-1.5"},
	}
	for _, c := range cases {
		got := string(appendMicros(nil, sim.Time(c.ps)))
		if got != c.want {
			t.Fatalf("appendMicros(%d) = %q, want %q", c.ps, got, c.want)
		}
		if ref := psToMicros(sim.Time(c.ps)); got != ref {
			t.Fatalf("appendMicros(%d) = %q, reference renders %q", c.ps, got, ref)
		}
	}
}

// TestWriteJSONMatchesReference is the differential test of the
// rendering path: random spans with heavy ties on Start/Proc/Track,
// exact duplicates, and per-switch tracers merged through
// MergeTracers must render to exactly the bytes of the reference
// path (stable insertion sort plus psToMicros).
func TestWriteJSONMatchesReference(t *testing.T) {
	names := []string{"arrive", "batch", "xbar", "frame", "hbm", "egress", "drop"}
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 13))
		parts := make([]*Tracer, 1+rng.IntN(4))
		for p := range parts {
			parts[p], _ = NewTracer(1)
			for range rng.IntN(400) {
				s := Span{
					Name:  names[rng.IntN(len(names))],
					Proc:  p,
					Track: rng.IntN(3),
					Start: sim.Time(rng.IntN(8)) * 250_000, // many ties
					Pkt:   uint64(rng.IntN(64)),
				}
				s.End = s.Start + sim.Time(rng.IntN(3_000_000)-100)
				if rng.IntN(4) == 0 {
					s.Proc = rng.IntN(len(parts)) // cross-switch ties
				}
				n := 1
				if rng.IntN(5) == 0 {
					n = 2 + rng.IntN(3) // exact duplicates
				}
				for range n {
					parts[p].Span(s.Name, s.Proc, s.Track, s.Start, s.End, s.Pkt)
				}
			}
		}
		m, err := MergeTracers(parts...)
		if err != nil {
			t.Fatal(err)
		}
		record := slices.Clone(m.Events())
		var got bytes.Buffer
		if err := m.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if want := referenceJSON(m.Events()); got.String() != want {
			t.Fatalf("seed %d: %d spans render differently from the reference", seed, len(record))
		}
		if !slices.Equal(m.Events(), record) {
			t.Fatalf("seed %d: WriteJSON reordered the recorded spans", seed)
		}
	}
}

// referenceJSON is the original rendering path, kept as the oracle
// for TestWriteJSONMatchesReference.
func referenceJSON(spans []Span) string {
	evs := append([]Span(nil), spans...)
	sortStable(evs, func(a, b Span) bool {
		switch {
		case a.Start != b.Start:
			return a.Start < b.Start
		case a.Proc != b.Proc:
			return a.Proc < b.Proc
		case a.Track != b.Track:
			return a.Track < b.Track
		case a.Pkt != b.Pkt:
			return a.Pkt < b.Pkt
		case a.Name != b.Name:
			return a.Name < b.Name
		default:
			return a.End < b.End
		}
	})
	var b strings.Builder
	b.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	for i, e := range evs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"name":`)
		b.WriteString(strconv.Quote(e.Name))
		b.WriteString(`,"cat":"packet","ph":"X","ts":`)
		b.WriteString(psToMicros(e.Start))
		b.WriteString(`,"dur":`)
		b.WriteString(psToMicros(e.End - e.Start))
		b.WriteString(`,"pid":`)
		b.WriteString(strconv.Itoa(e.Proc))
		b.WriteString(`,"tid":`)
		b.WriteString(strconv.Itoa(e.Track))
		b.WriteString(`,"args":{"pkt":`)
		b.WriteString(strconv.FormatUint(e.Pkt, 10))
		b.WriteString("}}")
	}
	b.WriteString("]}\n")
	return b.String()
}

// sortStable is a binary insertion sort: O(n^2) moves, but stable and
// obviously correct, which is what a reference needs.
func sortStable(evs []Span, less func(a, b Span) bool) {
	for i := 1; i < len(evs); i++ {
		lo, hi := 0, i
		for lo < hi {
			mid := (lo + hi) / 2
			if less(evs[i], evs[mid]) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		if lo < i {
			e := evs[i]
			copy(evs[lo+1:i+1], evs[lo:i])
			evs[lo] = e
		}
	}
}

// psToMicros renders integer picoseconds as decimal microseconds with
// no floating-point rounding: 12_345_678 ps -> "12.345678".
func psToMicros(t sim.Time) string {
	ps := int64(t)
	neg := ps < 0
	if neg {
		ps = -ps
	}
	whole := ps / 1_000_000
	frac := ps % 1_000_000
	var b strings.Builder
	if neg {
		b.WriteByte('-')
	}
	b.WriteString(strconv.FormatInt(whole, 10))
	if frac != 0 {
		s := strconv.FormatInt(frac, 10)
		for len(s) < 6 {
			s = "0" + s
		}
		s = strings.TrimRight(s, "0")
		b.WriteByte('.')
		b.WriteString(s)
	}
	return b.String()
}

// pipelineTracer records n spans shaped like a single-switch run's:
// six phases per packet on 16 ports, recorded packet by packet, so
// later packets' early phases interleave with earlier packets' late
// ones and the render sort has real work to do.
func pipelineTracer(n int) *Tracer {
	phases := []string{"arrive", "batch", "xbar", "frame", "hbm", "egress"}
	tr, _ := NewTracer(1)
	for i := 0; len(tr.events) < n; i++ {
		pkt := uint64(i)
		at := sim.Time(i) * 6_400
		for k, name := range phases[:min(len(phases), n-len(tr.events))] {
			end := at + sim.Time(17_000*k+int(pkt%97)*125)
			tr.Span(name, 0, int(pkt%16), at, end, pkt)
			at = end
		}
	}
	return tr
}

// TestWriteJSONAllocsIndependentOfSpanCount pins "no per-span
// allocation": rendering 64k spans must allocate no more often than
// rendering 1k.
func TestWriteJSONAllocsIndependentOfSpanCount(t *testing.T) {
	allocs := func(n int) float64 {
		tr := pipelineTracer(n)
		return testing.AllocsPerRun(3, func() {
			if err := tr.WriteJSON(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1<<10), allocs(64<<10)
	if large > small {
		t.Fatalf("WriteJSON allocates %.0f times at 64k spans, %.0f at 1k: allocation grows with span count",
			large, small)
	}
}

func BenchmarkTracerWriteJSON(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("spans=%d", n), func(b *testing.B) {
			tr := pipelineTracer(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tr.WriteJSON(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
