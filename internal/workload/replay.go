package workload

import (
	"fmt"
	"io"

	"pbrouter/internal/packet"
	"pbrouter/internal/sim"
	"pbrouter/internal/traffic"
)

// ReplayStream replays a binary trace (package traffic's format) for
// an n-port geometry in two streaming passes, so memory does not grow
// with the trace's length. traffic.ScanTrace checks every record and
// measures the load; a traffic.TraceStream then replays the trace from
// the start with its time axis multiplied by scale, or by the
// LoadScale that hits load when scale is 0. The stream closes r when
// the trace ends or on Close.
func ReplayStream(r io.ReadSeeker, n int, lineRate sim.Rate, load, scale float64) (*traffic.TraceStream, error) {
	st, err := traffic.ScanTrace(r)
	switch {
	case err != nil:
		return nil, fmt.Errorf("workload: replay: %w", err)
	case len(st.PerInput) != n: // one entry per header port
		return nil, fmt.Errorf("workload: replay: trace has %d ports, the geometry has %d", len(st.PerInput), n)
	case st.Packets == 0:
		return nil, fmt.Errorf("workload: replay: trace is empty")
	}
	if scale == 0 {
		scale = LoadScale(st, lineRate, load)
	}
	if _, err := r.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("workload: replay: %w", err)
	}
	return traffic.NewTraceStream(r, scale)
}

// LoadScale derives the time-axis scale that rescales the trace's
// busiest input to the target load: scale < 1 compresses time (raising
// the rate), > 1 stretches it. Keyed to the busiest input rather than
// the mean so no single port is driven past the target.
func LoadScale(st traffic.TraceStats, lineRate sim.Rate, targetLoad float64) float64 {
	span := st.Duration()
	if targetLoad <= 0 || st.Packets < 2 || span <= 0 {
		return 1
	}
	var busiest float64
	capacity := sim.BitsIn(span, lineRate)
	for _, bytes := range st.PerInput {
		if load := float64(bytes*8) / capacity; load > busiest {
			busiest = load
		}
	}
	if busiest <= 0 {
		return 1
	}
	return busiest / targetLoad
}

// AnonymizeFlow replaces a 5-tuple with a synthetic TCP tuple keyed by
// a 64-bit fold of the original: packets of one flow still share a
// tuple, but no address survives. A fold of zero falls back to the
// packet's (input, output) pair.
func AnonymizeFlow(ft packet.FiveTuple, input, output int) packet.FiveTuple {
	label := mix64(uint64(ft.SrcIP)<<32|uint64(ft.DstIP)) ^
		mix64(uint64(ft.SrcPort)<<32|uint64(ft.DstPort)<<16|uint64(ft.Proto))
	if label == 0 {
		label = mix64(uint64(uint32(input))<<32 | uint64(uint32(output)))
	}
	h := mix64(label)
	return packet.FiveTuple{
		SrcIP:   uint32(h),
		DstIP:   uint32(h >> 32),
		SrcPort: uint16(label),
		DstPort: uint16(label >> 16),
		Proto:   6,
	}
}
