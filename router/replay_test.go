package router

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"pbrouter/internal/packet"
	"pbrouter/internal/sim"
	"pbrouter/internal/traffic"
)

func TestReplayTraceViaFacade(t *testing.T) {
	r, err := New(Reference())
	if err != nil {
		t.Fatal(err)
	}
	// Record a workload.
	var buf bytes.Buffer
	tw, err := traffic.NewTraceWriter(&buf, 16)
	if err != nil {
		t.Fatal(err)
	}
	srcs := traffic.UniformSources(UniformMatrix(16, 0.5), r.Cfg.Switch.PortRate,
		Poisson, FixedSize(1500), sim.NewRNG(3))
	mux := traffic.NewMux(srcs)
	for {
		p, at := mux.Next()
		if p == nil || at > 5*Microsecond {
			break
		}
		if err := tw.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tw.Finish(); err != nil {
		t.Fatal(err)
	}
	rep, err := r.ReplayTrace(&buf, 5*Microsecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeliveredPackets == 0 || len(rep.Errors) > 0 {
		t.Fatalf("replay: %v", rep)
	}
	// Wrong port count rejected.
	var buf2 bytes.Buffer
	tw2, _ := traffic.NewTraceWriter(&buf2, 8)
	tw2.Finish()
	if _, err := r.ReplayTrace(&buf2, Microsecond, nil); err == nil {
		t.Fatal("mismatched trace accepted")
	}
	// A record whose port is outside the header's N ends the replay
	// with an error, not an index panic inside the switch.
	var buf3 bytes.Buffer
	tw3, _ := traffic.NewTraceWriter(&buf3, 16)
	tw3.Add(&packet.Packet{Arrival: 10, Size: 64, Input: 1, Output: 2})
	tw3.Finish()
	raw := buf3.Bytes()
	raw[16+12] = 99 // the record's input port
	if _, err := r.ReplayTrace(bytes.NewReader(raw), Microsecond, nil); err == nil {
		t.Fatal("trace record with input port 99 accepted")
	}
}

// TestReplayTraceRejectsBadRecords checks that a record the switch
// cannot take ends the replay with an error naming it — no panic
// inside the scheduler and no oversized packet in the pipeline.
func TestReplayTraceRejectsBadRecords(t *testing.T) {
	r, err := New(Reference())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		patch func(rec []byte) // the trace's second record
		want  string
	}{
		{"decreasing-arrival", func(rec []byte) { binary.LittleEndian.PutUint64(rec, 10) }, "before"},
		{"arrival-bit63", func(rec []byte) { binary.LittleEndian.PutUint64(rec, 1<<63) }, "negative arrival"},
		{"oversize", func(rec []byte) { binary.LittleEndian.PutUint32(rec[8:], packet.MaxSize+1) }, "size"},
		{"port-beyond-n", func(rec []byte) { binary.LittleEndian.PutUint16(rec[14:], 16) }, "ports"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			tw, _ := traffic.NewTraceWriter(&buf, 16)
			tw.Add(&packet.Packet{Arrival: sim.Nanosecond, Size: 64, Input: 1, Output: 2})
			tw.Add(&packet.Packet{Arrival: 2 * sim.Nanosecond, Size: 64, Input: 3, Output: 4})
			tw.Finish()
			raw := buf.Bytes()
			tc.patch(raw[16+32:])
			_, err := r.ReplayTrace(bytes.NewReader(raw), Microsecond, nil)
			if err == nil || !strings.Contains(err.Error(), "packet 2") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got error %v, want one naming packet 2 and %q", err, tc.want)
			}
		})
	}
}
