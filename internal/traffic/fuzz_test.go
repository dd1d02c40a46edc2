package traffic

import (
	"bytes"
	"testing"
)

// FuzzTraceReader feeds arbitrary bytes to the trace parser: it must
// reject or cleanly terminate on any input, never panic, and never
// return a malformed packet.
func FuzzTraceReader(f *testing.F) {
	// Seed with a valid trace and with garbage.
	var buf bytes.Buffer
	tw, _ := NewTraceWriter(&buf, 4)
	tw.Finish()
	f.Add(buf.Bytes())
	f.Add([]byte("garbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := NewTraceReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := 0; i < 10000; i++ {
			p, ok, err := tr.Next()
			if err != nil || !ok {
				return
			}
			n := tr.Header().N
			if p.Size <= 0 || p.Input < 0 || p.Output < 0 || p.Input >= n || p.Output >= n {
				t.Fatalf("malformed packet accepted: %+v", p)
			}
		}
	})
}
