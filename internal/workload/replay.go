package workload

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"pbrouter/internal/packet"
	"pbrouter/internal/sim"
	"pbrouter/internal/traffic"
)

// Record is one packet of an NDJSON trace: one JSON object per line,
//
//	{"t_ps":1234,"in":0,"out":3,"size":1500,"flow":42}
//
// with t_ps the arrival time in picoseconds (nondecreasing through the
// file), in/out the port indices, size the wire bytes, and flow an
// optional flow label folded into the synthesized 5-tuple (packets
// sharing a label form one flow for reorder accounting). The textual
// format is deliberately simple — anything that can emit JSON lines
// can feed the replay engine — and complements the binary PBRT format
// in package traffic.
type Record struct {
	TimePs int64  `json:"t_ps"`
	Input  int    `json:"in"`
	Output int    `json:"out"`
	Size   int    `json:"size"`
	Flow   uint64 `json:"flow,omitempty"`
}

// ReadRecords parses an NDJSON trace, validating ordering and bounds.
func ReadRecords(r io.Reader) ([]Record, error) {
	return readRecords(r, 0)
}

// readRecords is ReadRecords that also rejects, by line, any port at
// or above ports — the switch geometry's N. ports <= 0 skips that
// check.
func readRecords(r io.Reader, ports int) ([]Record, error) {
	var recs []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("workload: trace line %d: %w", line, err)
		}
		if rec.TimePs < 0 {
			return nil, fmt.Errorf("workload: trace line %d: negative time %d", line, rec.TimePs)
		}
		if len(recs) > 0 && rec.TimePs < recs[len(recs)-1].TimePs {
			return nil, fmt.Errorf("workload: trace line %d: arrivals must be nondecreasing (%d after %d)",
				line, rec.TimePs, recs[len(recs)-1].TimePs)
		}
		if rec.Input < 0 || rec.Output < 0 {
			return nil, fmt.Errorf("workload: trace line %d: negative port", line)
		}
		if ports > 0 && (rec.Input >= ports || rec.Output >= ports) {
			return nil, fmt.Errorf("workload: trace line %d: port in %d / out %d out of range for %d ports",
				line, rec.Input, rec.Output, ports)
		}
		if rec.Size < 1 || rec.Size > packet.MaxSize {
			return nil, fmt.Errorf("workload: trace line %d: size %d out of [1, %d]",
				line, rec.Size, packet.MaxSize)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: trace: %w", err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("workload: trace is empty")
	}
	return recs, nil
}

// WriteRecords emits records as NDJSON.
func WriteRecords(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Capture drains a stream up to the horizon into trace records — the
// bridge from any generator to a replayable trace.
func Capture(s traffic.Stream, horizon sim.Time) []Record {
	var recs []Record
	for {
		p, at := s.Next()
		if p == nil || at > horizon {
			return recs
		}
		recs = append(recs, Record{
			TimePs: int64(at),
			Input:  p.Input,
			Output: p.Output,
			Size:   p.Size,
			Flow:   tupleLabel(p.Flow),
		})
	}
}

// tupleLabel folds a 5-tuple into a stable flow label.
func tupleLabel(ft packet.FiveTuple) uint64 {
	return mix64(uint64(ft.SrcIP)<<32|uint64(ft.DstIP)) ^
		mix64(uint64(ft.SrcPort)<<32|uint64(ft.DstPort)<<16|uint64(ft.Proto))
}

// LoadScale derives the time-axis scale that rescales the trace's
// busiest input to the target load: scale < 1 compresses time (raising
// the rate), > 1 stretches it. Keyed to the busiest input rather than
// the mean so no single port is driven past the target.
func LoadScale(recs []Record, lineRate sim.Rate, targetLoad float64) float64 {
	if targetLoad <= 0 || len(recs) < 2 {
		return 1
	}
	span := recs[len(recs)-1].TimePs - recs[0].TimePs
	if span <= 0 {
		return 1
	}
	perInput := map[int]int64{}
	for _, rec := range recs {
		perInput[rec.Input] += int64(rec.Size)
	}
	var busiest float64
	capacity := sim.BitsIn(sim.Time(span), lineRate)
	for _, bytes := range perInput {
		if load := float64(bytes*8) / capacity; load > busiest {
			busiest = load
		}
	}
	if busiest <= 0 {
		return 1
	}
	return busiest / targetLoad
}

// Replay streams trace records with the time axis multiplied by
// Scale, synthesizing 5-tuples from the flow labels and assigning
// dense per-(input,output) sequence numbers — a drop-in
// traffic.Stream for every architecture.
type Replay struct {
	recs  []Record
	scale float64
	base  int64 // first record's time: scaling is anchored there
	idx   int
	id    uint64
	seqs  map[uint64]int64
}

// NewReplay builds the replay stream. A non-positive scale means 1.
func NewReplay(recs []Record, scale float64) *Replay {
	if scale <= 0 {
		scale = 1
	}
	var base int64
	if len(recs) > 0 {
		base = recs[0].TimePs
	}
	return &Replay{recs: recs, scale: scale, base: base, seqs: make(map[uint64]int64)}
}

// Next implements traffic.Stream.
func (r *Replay) Next() (*packet.Packet, sim.Time) {
	if r.idx >= len(r.recs) {
		return nil, 0
	}
	rec := r.recs[r.idx]
	r.idx++
	r.id++
	at := sim.Time(r.base) + sim.Time(float64(rec.TimePs-r.base)*r.scale)
	label := rec.Flow
	if label == 0 {
		label = mix64(uint64(uint32(rec.Input))<<32 | uint64(uint32(rec.Output)))
	}
	h := mix64(label)
	size := rec.Size
	if size < packet.MinSize {
		size = packet.MinSize
	}
	p := &packet.Packet{
		ID: r.id,
		Flow: packet.FiveTuple{
			SrcIP:   uint32(h),
			DstIP:   uint32(h >> 32),
			SrcPort: uint16(label),
			DstPort: uint16(label >> 16),
			Proto:   6,
		},
		Size:    size,
		Input:   rec.Input,
		Output:  rec.Output,
		Arrival: at,
	}
	key := uint64(uint32(p.Input))<<32 | uint64(uint32(p.Output))
	p.Seq = r.seqs[key]
	r.seqs[key]++
	return p, at
}
