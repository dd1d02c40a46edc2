package traffic

import (
	"bytes"
	"testing"

	"pbrouter/internal/packet"
	"pbrouter/internal/sim"
)

// FuzzTraceReader feeds arbitrary bytes to the trace parser: it must
// reject or cleanly terminate on any input, never panic, and never
// return a malformed packet — every accepted packet has ports below
// the header's N, a size in [1, packet.MaxSize], and a nonnegative
// arrival no earlier than the previous one.
func FuzzTraceReader(f *testing.F) {
	// Seed with a valid trace and with garbage.
	var buf bytes.Buffer
	tw, _ := NewTraceWriter(&buf, 4)
	tw.Finish()
	f.Add(buf.Bytes())
	f.Add([]byte("garbage"))
	f.Add([]byte{})
	var two bytes.Buffer
	tw, _ = NewTraceWriter(&two, 4)
	tw.Add(&packet.Packet{Arrival: 7, Size: 64, Input: 1, Output: 2})
	tw.Add(&packet.Packet{Arrival: 9, Size: 1500, Input: 3, Output: 0})
	tw.Finish()
	f.Add(two.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := NewTraceReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		var last sim.Time
		for i := 0; i < 10000; i++ {
			p, ok, err := tr.Next()
			if err != nil || !ok {
				return
			}
			n := tr.Header().N
			if p.Size <= 0 || p.Size > packet.MaxSize ||
				p.Input < 0 || p.Output < 0 || p.Input >= n || p.Output >= n {
				t.Fatalf("malformed packet accepted: %+v", p)
			}
			if p.Arrival < 0 || p.Arrival < last {
				t.Fatalf("packet %d arrives at %d after %d", p.ID, int64(p.Arrival), int64(last))
			}
			last = p.Arrival
		}
	})
}
