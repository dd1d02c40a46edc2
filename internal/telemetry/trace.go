package telemetry

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"pbrouter/internal/sim"
)

// Tracer records the lifecycle of a deterministic sample of packets
// (arrival → batch → crossbar → frame → HBM → egress) as spans keyed
// on simulated time, and renders them as Chrome trace-event JSON that
// Perfetto (ui.perfetto.dev) and chrome://tracing open directly.
//
// Sampling is by packet ID (ID % SampleEvery == 0). Packet IDs are
// assigned by the deterministic generators, so the same packets are
// traced however many worker goroutines run the simulation, and the
// rendered bytes are identical.
//
// A nil *Tracer is a no-op: Sampled reports false and the record
// methods return immediately, so the disabled hot path costs one
// branch.
type Tracer struct {
	sampleEvery uint64
	events      []Span
}

// Span is one trace event: a named phase of one packet's transit
// through one pipeline stage. Track selects the Perfetto row (the
// port the phase ran on); Proc groups tracks (the switch index).
type Span struct {
	Name  string   // phase name: arrive|batch|xbar|frame|hbm|egress|drop
	Proc  int      // pid: switch index (0 for a single-switch run)
	Track int      // tid: port the phase ran on
	Start sim.Time // phase start
	End   sim.Time // phase end; == Start for instant events
	Pkt   uint64   // packet ID
}

// NewTracer returns a tracer sampling one packet in sampleEvery
// (1 traces every packet).
func NewTracer(sampleEvery int) (*Tracer, error) {
	if sampleEvery < 1 {
		return nil, fmt.Errorf("telemetry: non-positive trace sample %d", sampleEvery)
	}
	return &Tracer{sampleEvery: uint64(sampleEvery)}, nil
}

// Sampled reports whether the packet ID is in the traced sample.
// False on a nil tracer.
func (t *Tracer) Sampled(id uint64) bool {
	return t != nil && id%t.sampleEvery == 0
}

// Span records one phase of a sampled packet. The caller is expected
// to have checked Sampled; unsampled IDs are dropped here as well so
// hooks may skip the check on cold paths. No-op on nil.
func (t *Tracer) Span(name string, proc, track int, start, end sim.Time, pkt uint64) {
	if t == nil || pkt%t.sampleEvery != 0 {
		return
	}
	t.events = append(t.events, Span{Name: name, Proc: proc, Track: track,
		Start: start, End: end, Pkt: pkt})
}

// Instant records a zero-duration event (e.g. an ingress drop).
func (t *Tracer) Instant(name string, proc, track int, at sim.Time, pkt uint64) {
	t.Span(name, proc, track, at, at, pkt)
}

// Events returns the recorded spans (read-only). Nil-safe.
func (t *Tracer) Events() []Span {
	if t == nil {
		return nil
	}
	return t.events
}

// MergeTracers concatenates the spans of several tracers in argument
// order (e.g. the per-switch tracers of an SPS run) into one tracer
// for rendering. Sample rates must agree.
func MergeTracers(parts ...*Tracer) (*Tracer, error) {
	var out *Tracer
	for _, p := range parts {
		if p == nil {
			continue
		}
		if out == nil {
			merged, err := NewTracer(int(p.sampleEvery))
			if err != nil {
				return nil, err
			}
			out = merged
		} else if p.sampleEvery != out.sampleEvery {
			return nil, fmt.Errorf("telemetry: merging tracers with sample %d and %d",
				p.sampleEvery, out.sampleEvery)
		}
		out.events = append(out.events, p.events...)
	}
	return out, nil
}

// WriteJSON renders the spans as Chrome trace-event JSON. Events are
// emitted in (start, proc, track, packet, name, end) order, so the
// bytes do not depend on hook call order across merged tracers. That
// key covers every Span field: spans that compare equal are identical
// and render identically, so the sort need not be stable. Timestamps
// ("ts", microseconds in the trace-event format) are printed as exact
// decimal picosecond fractions. The output is built in one buffer and
// written with one Write; rendering allocates nothing per span.
// No-op on nil.
func (t *Tracer) WriteJSON(w io.Writer) error {
	if t == nil {
		return nil
	}
	evs := slices.Clone(t.events) // Events keeps record order
	slices.SortFunc(evs, compareSpans)
	b := make([]byte, 0, len(traceHead)+len(evs)*spanBytes+len(traceTail))
	b = append(b, traceHead...)
	for i, e := range evs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"name":`...)
		b = strconv.AppendQuote(b, e.Name)
		b = append(b, `,"cat":"packet","ph":"X","ts":`...)
		b = appendMicros(b, e.Start)
		b = append(b, `,"dur":`...)
		b = appendMicros(b, e.End-e.Start)
		b = append(b, `,"pid":`...)
		b = strconv.AppendInt(b, int64(e.Proc), 10)
		b = append(b, `,"tid":`...)
		b = strconv.AppendInt(b, int64(e.Track), 10)
		b = append(b, `,"args":{"pkt":`...)
		b = strconv.AppendUint(b, e.Pkt, 10)
		b = append(b, "}}"...)
	}
	b = append(b, traceTail...)
	_, err := w.Write(b)
	return err
}

const (
	traceHead = `{"displayTimeUnit":"ns","traceEvents":[`
	traceTail = "]}\n"
	// spanBytes sizes the render buffer: a span renders to about
	// 100-115 bytes, so the buffer does not have to grow.
	spanBytes = 128
)

// compareSpans orders spans by (Start, Proc, Track, Pkt, Name, End).
// Early returns, not cmp.Or: most pairs differ in Start, and cmp.Or
// would compare every field, which halves sort speed.
func compareSpans(a, b Span) int {
	if c := cmp.Compare(a.Start, b.Start); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Proc, b.Proc); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Track, b.Track); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Pkt, b.Pkt); c != 0 {
		return c
	}
	if c := strings.Compare(a.Name, b.Name); c != 0 {
		return c
	}
	return cmp.Compare(a.End, b.End)
}

// appendMicros appends integer picoseconds as decimal microseconds
// with no floating-point rounding and no trailing fraction zeros:
// 12_345_678 ps -> "12.345678", 2_500_000 ps -> "2.5".
func appendMicros(b []byte, t sim.Time) []byte {
	ps := uint64(t)
	if t < 0 {
		b = append(b, '-')
		ps = -ps
	}
	b = strconv.AppendUint(b, ps/1_000_000, 10)
	frac := ps % 1_000_000
	if frac == 0 {
		return b
	}
	b = append(b, '.')
	for d := uint64(100_000); frac != 0; d /= 10 {
		b = append(b, byte('0'+frac/d))
		frac %= d
	}
	return b
}
