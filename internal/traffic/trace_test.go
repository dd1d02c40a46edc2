package traffic

import (
	"bytes"
	"strings"
	"testing"

	"pbrouter/internal/packet"
	"pbrouter/internal/sim"
)

func TestTraceRoundTrip(t *testing.T) {
	rng := sim.NewRNG(9)
	srcs := UniformSources(Uniform(4, 0.6), 100*sim.Gbps, Poisson, IMIX(), rng)
	orig := NewMux(srcs).Window(20 * sim.Microsecond)

	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range orig {
		if err := tw.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	n, err := tw.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(orig)) {
		t.Fatalf("wrote %d of %d", n, len(orig))
	}

	tr, err := NewTraceReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Header().N != 4 {
		t.Fatalf("header N %d", tr.Header().N)
	}
	for i, want := range orig {
		got, ok, err := tr.Next()
		if err != nil || !ok {
			t.Fatalf("record %d: ok=%v err=%v", i, ok, err)
		}
		if got.Arrival != want.Arrival || got.Size != want.Size ||
			got.Input != want.Input || got.Output != want.Output ||
			got.Flow != want.Flow || got.Seq != want.Seq {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, got, want)
		}
	}
	if _, ok, err := tr.Next(); ok || err != nil {
		t.Fatalf("expected clean EOF, got ok=%v err=%v", ok, err)
	}
}

func TestTraceWriterRejectsDisorder(t *testing.T) {
	var buf bytes.Buffer
	tw, _ := NewTraceWriter(&buf, 2)
	tw.Add(&packet.Packet{Arrival: 100, Size: 64, Input: 0, Output: 1})
	if err := tw.Add(&packet.Packet{Arrival: 50, Size: 64, Input: 0, Output: 1}); err == nil {
		t.Fatal("out-of-order arrival accepted")
	}
	if err := tw.Add(&packet.Packet{Arrival: 200, Size: 64, Input: 5, Output: 0}); err == nil {
		t.Fatal("out-of-range port accepted")
	}
}

// TestTraceReaderRejectsOutOfRangePorts: a record whose input or
// output is at or above the header's N fails on read, naming the
// record, instead of reaching a switch that indexes by port.
func TestTraceReaderRejectsOutOfRangePorts(t *testing.T) {
	for _, field := range []struct {
		name string
		off  int
	}{{"input", 12}, {"output", 14}} {
		var buf bytes.Buffer
		tw, _ := NewTraceWriter(&buf, 16)
		for i := 0; i < 3; i++ {
			if err := tw.Add(&packet.Packet{Arrival: sim.Time(10 * i), Size: 64, Input: i, Output: 15 - i}); err != nil {
				t.Fatal(err)
			}
		}
		tw.Finish()
		raw := buf.Bytes()
		raw[16+32+field.off] = 16 // record 2: port 16 on a 16-port trace
		tr, err := NewTraceReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, err := tr.Next(); !ok || err != nil {
			t.Fatalf("%s: record 1: ok=%v err=%v", field.name, ok, err)
		}
		p, ok, err := tr.Next()
		if err == nil || ok || p != nil {
			t.Fatalf("%s: record 2 with port 16 accepted: %+v", field.name, p)
		}
		if !strings.Contains(err.Error(), "packet 2 ") {
			t.Errorf("%s: error %q does not name record 2", field.name, err)
		}
	}
}

func TestTraceReaderRejectsGarbage(t *testing.T) {
	if _, err := NewTraceReader(bytes.NewReader([]byte("not a trace at all"))); err == nil {
		t.Fatal("garbage header accepted")
	}
	var buf bytes.Buffer
	tw, _ := NewTraceWriter(&buf, 2)
	tw.Finish()
	raw := buf.Bytes()
	raw[4] = 99 // corrupt version
	if _, err := NewTraceReader(bytes.NewReader(raw)); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestScanTrace(t *testing.T) {
	var buf bytes.Buffer
	tw, _ := NewTraceWriter(&buf, 2)
	tw.Add(&packet.Packet{Arrival: 1000, Size: 64, Input: 0, Output: 1})
	tw.Add(&packet.Packet{Arrival: 2000, Size: 1500, Input: 1, Output: 0})
	tw.Finish()
	st, err := ScanTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Packets != 2 || st.Bytes != 1564 {
		t.Fatalf("stats %+v", st)
	}
	if st.MinSize != 64 || st.MaxSize != 1500 {
		t.Fatalf("sizes %d..%d", st.MinSize, st.MaxSize)
	}
	if st.Duration() != 1000 {
		t.Fatalf("duration %v", st.Duration())
	}
	if st.PerInput[0] != 64 || st.PerOutput[0] != 1500 {
		t.Fatalf("per-port bytes %v %v", st.PerInput, st.PerOutput)
	}
}

func TestTraceSeqsAssignedOnReplay(t *testing.T) {
	var buf bytes.Buffer
	tw, _ := NewTraceWriter(&buf, 2)
	for i := 0; i < 5; i++ {
		tw.Add(&packet.Packet{Arrival: sim.Time(i * 1000), Size: 64, Input: 0, Output: 1})
	}
	tw.Finish()
	tr, _ := NewTraceReader(&buf)
	for want := int64(0); ; want++ {
		p, ok, err := tr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if p.Seq != want {
			t.Fatalf("seq %d want %d", p.Seq, want)
		}
	}
}
