package workload

import (
	"bytes"
	"testing"

	"pbrouter/internal/packet"
)

// FuzzReadRecords feeds arbitrary bytes and port counts to the NDJSON
// trace reader: it must never panic, and whatever it accepts must be
// nonempty, in nondecreasing time, within the port count (ports > 0)
// and within packet size bounds.
func FuzzReadRecords(f *testing.F) {
	f.Add([]byte("{\"t_ps\":0,\"in\":0,\"out\":3,\"size\":64}\n{\"t_ps\":5,\"in\":1,\"out\":2,\"size\":1500,\"flow\":7}\n"), uint16(4))
	f.Add([]byte(`{"t_ps":9,"in":99,"out":0,"size":64}`), uint16(16))
	f.Add([]byte("{\"t_ps\":9,\"in\":0,\"out\":0,\"size\":64}\n{\"t_ps\":3,\"in\":0,\"out\":0,\"size\":64}"), uint16(0))
	f.Add([]byte(`{"t_ps":-1,"in":0,"out":0,"size":0}`), uint16(2))
	f.Add([]byte("\n\n"), uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, ports uint16) {
		n := int(ports)
		recs, err := readRecords(bytes.NewReader(data), n)
		if err != nil {
			return
		}
		if len(recs) == 0 {
			t.Fatal("no error and no records")
		}
		for i, r := range recs {
			if i > 0 && r.TimePs < recs[i-1].TimePs {
				t.Fatalf("record %d: time %d after %d", i, r.TimePs, recs[i-1].TimePs)
			}
			if r.TimePs < 0 || r.Input < 0 || r.Output < 0 || (n > 0 && (r.Input >= n || r.Output >= n)) {
				t.Fatalf("record %d out of range for %d ports: %+v", i, n, r)
			}
			if r.Size < 1 || r.Size > packet.MaxSize {
				t.Fatalf("record %d: size %d out of [1, %d]", i, r.Size, packet.MaxSize)
			}
		}
	})
}
