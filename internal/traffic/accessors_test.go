package traffic

import (
	"bytes"
	"testing"

	"pbrouter/internal/packet"
	"pbrouter/internal/sim"
)

func TestSizeDistNames(t *testing.T) {
	if IMIX().Name() != "imix" {
		t.Fatal("imix name")
	}
	if (UniformSize{Min: 64, Max: 128}).Name() != "uniform[64,128]" {
		t.Fatal("uniform name")
	}
	if Fixed(64).Name() != "fixed64B" {
		t.Fatal("fixed name")
	}
}

func TestArrivalKindString(t *testing.T) {
	if Poisson.String() != "poisson" || Bursty.String() != "bursty" {
		t.Fatal("arrival names")
	}
	if ArrivalKind(7).String() == "" {
		t.Fatal("unknown kind string empty")
	}
}

func TestMixValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched mix accepted")
		}
	}()
	NewMix("bad", []int{64}, []float64{1, 2})
}

func TestUniformSizeDegenerate(t *testing.T) {
	d := UniformSize{Min: 100, Max: 100}
	if d.Sample(sim.NewRNG(1)) != 100 {
		t.Fatal("degenerate range")
	}
}

func TestSourceLoadAccessor(t *testing.T) {
	var id uint64
	src := NewSource(SourceConfig{
		Input: 0, LineRate: sim.Tbps, Kind: Poisson,
		Row: []float64{0.3, 0.2}, Sizes: Fixed(64), RNG: sim.NewRNG(1),
		NextID: func() uint64 { id++; return id },
	})
	if src.Load() != 0.5 {
		t.Fatalf("load %v", src.Load())
	}
}

func TestFlowPoolValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero flows per pair accepted")
		}
	}()
	NewFlowPool(0, sim.NewRNG(1))
}

func TestMatrixValidateBranches(t *testing.T) {
	m := NewMatrix(2)
	m.Rates[0][0] = -1
	if m.Validate() == nil {
		t.Fatal("negative rate accepted")
	}
	m2 := NewMatrix(2)
	m2.Rates = m2.Rates[:1]
	if m2.Validate() == nil {
		t.Fatal("missing row accepted")
	}
	m3 := NewMatrix(2)
	m3.Rates[1] = m3.Rates[1][:1]
	if m3.Validate() == nil {
		t.Fatal("short row accepted")
	}
}

func TestTraceStreamReplay(t *testing.T) {
	var buf bytes.Buffer
	tw, _ := NewTraceWriter(&buf, 2)
	tw.Add(&packet.Packet{Arrival: 100, Size: 64, Input: 0, Output: 1})
	tw.Add(&packet.Packet{Arrival: 200, Size: 128, Input: 1, Output: 0})
	tw.Finish()
	ts, err := NewTraceStream(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Header().N != 2 {
		t.Fatalf("header N %d", ts.Header().N)
	}
	p1, at1 := ts.Next()
	if p1 == nil || at1 != 100 || p1.Size != 64 {
		t.Fatalf("first packet %+v at %v", p1, at1)
	}
	p2, _ := ts.Next()
	if p2 == nil || p2.Size != 128 {
		t.Fatal("second packet")
	}
	if p3, at3 := ts.Next(); p3 != nil || at3 != sim.Forever {
		t.Fatal("stream did not end cleanly")
	}
	if ts.Err() != nil {
		t.Fatal(ts.Err())
	}
	// A corrupt record surfaces through Err.
	var bad bytes.Buffer
	tw2, _ := NewTraceWriter(&bad, 2)
	tw2.Finish()
	raw := append(bad.Bytes(), make([]byte, 16)...) // truncated record
	ts2, err := NewTraceStream(bytes.NewReader(raw), 1)
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := ts2.Next(); p != nil {
		t.Fatal("truncated record produced a packet")
	}
	if ts2.Err() == nil {
		t.Fatal("truncation not reported")
	}
}

// closeCounter is a trace source that counts its Close calls.
type closeCounter struct {
	*bytes.Reader
	closes int
}

func (c *closeCounter) Close() error { c.closes++; return nil }

// TestTraceStreamScaleAndClose checks the rescaled time axis, anchored
// at the first record, and that the stream closes its source exactly
// once: at the end of the trace, or on Close before it.
func TestTraceStreamScaleAndClose(t *testing.T) {
	var buf bytes.Buffer
	tw, _ := NewTraceWriter(&buf, 2)
	for _, at := range []sim.Time{100, 200, 400} {
		tw.Add(&packet.Packet{Arrival: at, Size: 64, Input: 0, Output: 1})
	}
	tw.Finish()
	src := &closeCounter{Reader: bytes.NewReader(buf.Bytes())}
	ts, err := NewTraceStream(src, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []sim.Time{100, 150, 250} {
		p, at := ts.Next()
		if p == nil || at != want || p.Arrival != want || p.ID != uint64(i+1) || p.Seq != int64(i) {
			t.Fatalf("packet %d: %+v at %v, want arrival %v", i, p, at, want)
		}
	}
	if p, _ := ts.Next(); p != nil || ts.Err() != nil || src.closes != 1 {
		t.Fatalf("end of trace: packet %v, err %v, %d closes", p, ts.Err(), src.closes)
	}
	ts.Close()
	if src.closes != 1 {
		t.Fatalf("Close after the end closed the source again (%d closes)", src.closes)
	}

	early := &closeCounter{Reader: bytes.NewReader(buf.Bytes())}
	ts, _ = NewTraceStream(early, 1)
	ts.Next()
	ts.Close()
	if p, at := ts.Next(); p != nil || at != sim.Forever || ts.Err() != nil || early.closes != 1 {
		t.Fatalf("after Close: packet %v at %v, err %v, %d closes", p, at, ts.Err(), early.closes)
	}
}

func TestMeanRatePerInputEmpty(t *testing.T) {
	var st TraceStats
	if st.MeanRatePerInput() != 0 {
		t.Fatal("empty trace rate")
	}
}
