package arch

import (
	"testing"

	"pbrouter/internal/packet"
	"pbrouter/internal/sim"
	"pbrouter/internal/traffic"
	"pbrouter/internal/workload"
)

// The reference below is the replay column as it was built before the
// binary trace became the only format: the heavy-tail stream captured
// into flow-labelled records, rescaled by the records' busiest input,
// and replayed with 5-tuples synthesized from the labels. It is kept
// as the oracle of TestReplayColumnMatchesReference.

type refRecord struct {
	timePs        int64
	input, output int
	size          int
	flow          uint64
}

func refMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func refCapture(s traffic.Stream, horizon sim.Time) []refRecord {
	var recs []refRecord
	for {
		p, at := s.Next()
		if p == nil || at > horizon {
			return recs
		}
		ft := p.Flow
		recs = append(recs, refRecord{
			timePs: int64(at),
			input:  p.Input,
			output: p.Output,
			size:   p.Size,
			flow: refMix64(uint64(ft.SrcIP)<<32|uint64(ft.DstIP)) ^
				refMix64(uint64(ft.SrcPort)<<32|uint64(ft.DstPort)<<16|uint64(ft.Proto)),
		})
	}
}

func refLoadScale(recs []refRecord, lineRate sim.Rate, targetLoad float64) float64 {
	if targetLoad <= 0 || len(recs) < 2 {
		return 1
	}
	span := recs[len(recs)-1].timePs - recs[0].timePs
	if span <= 0 {
		return 1
	}
	perInput := map[int]int64{}
	for _, rec := range recs {
		perInput[rec.input] += int64(rec.size)
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

type refReplay struct {
	recs  []refRecord
	scale float64
	base  int64
	idx   int
	id    uint64
	seqs  map[uint64]int64
}

func (r *refReplay) Next() (*packet.Packet, sim.Time) {
	if r.idx >= len(r.recs) {
		return nil, 0
	}
	rec := r.recs[r.idx]
	r.idx++
	r.id++
	at := sim.Time(r.base) + sim.Time(float64(rec.timePs-r.base)*r.scale)
	label := rec.flow
	if label == 0 {
		label = refMix64(uint64(uint32(rec.input))<<32 | uint64(uint32(rec.output)))
	}
	h := refMix64(label)
	size := rec.size
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
		Input:   rec.input,
		Output:  rec.output,
		Arrival: at,
	}
	key := uint64(uint32(p.Input))<<32 | uint64(uint32(p.Output))
	p.Seq = r.seqs[key]
	r.seqs[key]++
	return p, at
}

// refReplayColumn builds the reference stream of the replay column
// at workload index wIdx.
func refReplayColumn(t *testing.T, c SweepConfig, wIdx int) traffic.Stream {
	t.Helper()
	m := traffic.Uniform(c.N, c.Load)
	ht, err := workload.New(c.workloadConfig(workload.KindHeavyTail), m, c.portRate(),
		sim.NewRNG(c.workloadSeed(wIdx)))
	if err != nil {
		t.Fatal(err)
	}
	recs := refCapture(ht, c.HorizonPs)
	if len(recs) == 0 {
		t.Fatal("reference capture is empty")
	}
	return &refReplay{
		recs:  recs,
		scale: refLoadScale(recs, c.portRate(), c.Load),
		base:  recs[0].timePs,
		seqs:  map[uint64]int64{},
	}
}

// TestReplayColumnMatchesReference pins the synthesized replay
// column: over several seeds and two loads, buildStream must yield
// exactly the reference's packets — every field, and the returned
// arrival time — and end where it ends.
func TestReplayColumnMatchesReference(t *testing.T) {
	for _, load := range []float64{0.5, 0.9} {
		for seed := uint64(1); seed <= 8; seed++ {
			c := SweepConfig{
				Workloads: []string{workload.KindUniform, workload.KindReplay},
				Load:      load,
				Seed:      seed,
				HorizonPs: 20 * sim.Microsecond,
			}
			c.Normalize()
			got, _, err := c.buildStream(1)
			if err != nil {
				t.Fatal(err)
			}
			want := refReplayColumn(t, c, 1)
			for i := 0; ; i++ {
				gp, gat := got.Next()
				wp, wat := want.Next()
				if gp == nil || wp == nil {
					if gp != wp {
						t.Fatalf("load %g seed %d: streams end at different packets (%d): got %v want %v",
							load, seed, i, gp, wp)
					}
					if i < 100 {
						t.Fatalf("load %g seed %d: only %d packets", load, seed, i)
					}
					break
				}
				if *gp != *wp || gat != wat {
					t.Fatalf("load %g seed %d packet %d:\ngot  %+v at %d\nwant %+v at %d",
						load, seed, i, *gp, gat, *wp, wat)
				}
			}
		}
	}
}
