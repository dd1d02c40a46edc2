package workload

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"pbrouter/internal/packet"
	"pbrouter/internal/sim"
	"pbrouter/internal/traffic"
)

const testRate = sim.Rate(200e9)

func buildStream(t *testing.T, kind string, seed uint64) traffic.Stream {
	t.Helper()
	cfg := Config{Kind: kind}
	m := traffic.Uniform(8, 0.7)
	s, err := New(cfg, m, testRate, sim.NewRNG(seed))
	if err != nil {
		t.Fatalf("New(%s): %v", kind, err)
	}
	return s
}

// drain pulls packets up to the horizon, checking the stream contract:
// nondecreasing arrivals, legal sizes, in-range ports, dense
// per-(input,output) sequence numbers.
func drain(t *testing.T, s traffic.Stream, n int, horizon sim.Time) []packet.Packet {
	t.Helper()
	var out []packet.Packet
	var last sim.Time
	seqs := map[uint64]int64{}
	for {
		p, at := s.Next()
		if p == nil || at > horizon {
			break
		}
		if at < last {
			t.Fatalf("arrival went backwards: %v after %v", at, last)
		}
		last = at
		if p.Size < packet.MinSize || p.Size > packet.MaxSize {
			t.Fatalf("illegal size %d", p.Size)
		}
		if p.Input < 0 || p.Input >= n || p.Output < 0 || p.Output >= n {
			t.Fatalf("port out of range: %d->%d", p.Input, p.Output)
		}
		key := uint64(uint32(p.Input))<<32 | uint64(uint32(p.Output))
		if p.Seq != seqs[key] {
			t.Fatalf("seq gap on pair %d->%d: got %d want %d", p.Input, p.Output, p.Seq, seqs[key])
		}
		seqs[key]++
		out = append(out, *p)
	}
	return out
}

func fingerprint(ps []packet.Packet) string {
	var b bytes.Buffer
	for _, p := range ps {
		fmt.Fprintf(&b, "%d|%d|%d|%d|%d|%d|%v\n", p.ID, p.Input, p.Output, p.Size, p.Arrival, p.Seq, p.Flow)
	}
	return b.String()
}

// TestStreamContract checks every generator kind honors the stream
// contract and is byte-deterministic per seed.
func TestStreamContract(t *testing.T) {
	for _, kind := range []string{KindUniform, KindHeavyTail, KindOnOff, KindDiurnal} {
		t.Run(kind, func(t *testing.T) {
			horizon := 50 * sim.Microsecond
			a := drain(t, buildStream(t, kind, 42), 8, horizon)
			b := drain(t, buildStream(t, kind, 42), 8, horizon)
			if len(a) == 0 {
				t.Fatal("stream produced no packets")
			}
			if fingerprint(a) != fingerprint(b) {
				t.Fatal("same seed produced different packet streams")
			}
			c := drain(t, buildStream(t, kind, 43), 8, horizon)
			if fingerprint(a) == fingerprint(c) {
				t.Fatal("different seeds produced identical packet streams")
			}
		})
	}
}

// TestOfferedLoad checks each generator's long-run offered load lands
// near the matrix's target.
func TestOfferedLoad(t *testing.T) {
	const load = 0.7
	horizon := 400 * sim.Microsecond
	for _, kind := range []string{KindUniform, KindHeavyTail, KindOnOff, KindDiurnal} {
		t.Run(kind, func(t *testing.T) {
			ps := drain(t, buildStream(t, kind, 7), 8, horizon)
			var bits float64
			for _, p := range ps {
				bits += float64(p.Size) * 8
			}
			got := bits / (8 * sim.BitsIn(horizon, testRate))
			// Heavy-tailed samples converge slowly; allow a loose band.
			if got < load*0.6 || got > load*1.35 {
				t.Fatalf("offered load %.3f, want near %.2f", got, load)
			}
		})
	}
}

// TestParetoTail checks the heavy-tailed generator actually produces a
// heavy tail: flow sizes spanning orders of magnitude, with the top 10%
// of flows carrying the majority of bytes (the elephant/mice split).
func TestParetoTail(t *testing.T) {
	d := NewParetoFlows(1.3, 24*1024, 4*1024*1024)
	rng := sim.NewRNG(1)
	n := 20000
	sizes := make([]int64, n)
	var total float64
	for i := range sizes {
		sizes[i] = d.SampleBytes(rng)
		total += float64(sizes[i])
	}
	mean := total / float64(n)
	if mean < 24*1024*0.8 || mean > 24*1024*1.25 {
		t.Fatalf("sample mean %.0f far from target %d", mean, 24*1024)
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] > sizes[j] })
	var top float64
	for _, s := range sizes[:n/10] {
		top += float64(s)
	}
	if frac := top / total; frac < 0.5 {
		t.Fatalf("top 10%% of flows carry only %.0f%% of bytes — tail not heavy", frac*100)
	}
}

// TestLognormalMean checks the Box–Muller lognormal sampler hits its
// configured mean.
func TestLognormalMean(t *testing.T) {
	d := NewLognormalFlows(24*1024, 1.8, 64*1024*1024)
	rng := sim.NewRNG(2)
	var total float64
	n := 50000
	for i := 0; i < n; i++ {
		total += float64(d.SampleBytes(rng))
	}
	mean := total / float64(n)
	if mean < 24*1024*0.8 || mean > 24*1024*1.25 {
		t.Fatalf("sample mean %.0f far from target %d", mean, 24*1024)
	}
}

// TestOnOffBurstiness checks ON/OFF traffic is measurably burstier
// than Poisson at the same mean load: the peak windowed rate must
// exceed Poisson's by a clear margin.
func TestOnOffBurstiness(t *testing.T) {
	horizon := 200 * sim.Microsecond
	peakWindow := func(ps []packet.Packet) float64 {
		const win = 2 * sim.Microsecond
		bins := map[sim.Time]float64{}
		for _, p := range ps {
			bins[p.Arrival/win] += float64(p.Size) * 8
		}
		var peak float64
		for _, b := range bins {
			if b > peak {
				peak = b
			}
		}
		return peak / sim.BitsIn(win, testRate) / 8 // per-port peak load
	}
	poisson := peakWindow(drain(t, buildStream(t, KindUniform, 9), 8, horizon))
	onoff := peakWindow(drain(t, buildStream(t, KindOnOff, 9), 8, horizon))
	if onoff < poisson*1.1 {
		t.Fatalf("onoff peak window load %.3f not burstier than poisson %.3f", onoff, poisson)
	}
}

// TestDiurnalModulation checks the day-curve shows through: load in
// the curve's crest half exceeds load in its trough half.
func TestDiurnalModulation(t *testing.T) {
	cfg := Config{Kind: KindDiurnal, PeriodPs: 40 * sim.Microsecond}
	m := traffic.Uniform(8, 0.6)
	s, err := New(cfg, m, testRate, sim.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	ps := drain(t, s, 8, 40*sim.Microsecond)
	var crest, trough float64
	for _, p := range ps {
		if p.Arrival < 20*sim.Microsecond {
			crest += float64(p.Size) // sin > 0: first half-period
		} else {
			trough += float64(p.Size)
		}
	}
	if crest < trough*1.2 {
		t.Fatalf("no diurnal swing: crest %.0f vs trough %.0f bytes", crest, trough)
	}
}

// writeTrace writes s up to the horizon as an n-port trace file and
// returns its path and the packets written.
func writeTrace(t *testing.T, s traffic.Stream, n int, horizon sim.Time) (string, []packet.Packet) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "w.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tw, err := traffic.NewTraceWriter(f, n)
	if err != nil {
		t.Fatal(err)
	}
	var ps []packet.Packet
	for {
		p, at := s.Next()
		if p == nil || at > horizon {
			break
		}
		if err := tw.Add(p); err != nil {
			t.Fatal(err)
		}
		ps = append(ps, *p)
	}
	if _, err := tw.Finish(); err != nil {
		t.Fatal(err)
	}
	if len(ps) == 0 {
		t.Fatal("trace is empty")
	}
	return path, ps
}

// replayFile builds the replay workload over path for an 8-port
// geometry at load 0.7.
func replayFile(path string, scale float64) (traffic.Stream, error) {
	cfg := Config{Kind: KindReplay, ReplayPath: path, ReplayScale: scale}
	return New(cfg, traffic.Uniform(8, 0.7), testRate, sim.NewRNG(1))
}

// TestReplayRoundTrip writes a generated stream to a trace file and
// replays it through New: at scale 1 the replay must reproduce every
// packet, 5-tuple included, and a half scale must compress the time
// axis.
func TestReplayRoundTrip(t *testing.T) {
	path, recs := writeTrace(t, buildStream(t, KindHeavyTail, 3), 8, 20*sim.Microsecond)
	replay, err := replayFile(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range recs {
		p, at := replay.Next()
		if p == nil {
			t.Fatalf("replay ended early at %d/%d", i, len(recs))
		}
		if at != want.Arrival || p.Arrival != want.Arrival || p.Flow != want.Flow ||
			p.Input != want.Input || p.Output != want.Output || p.Size != want.Size || p.Seq != want.Seq {
			t.Fatalf("packet %d diverged:\ngot  %+v at %d\nwant %+v", i, *p, at, want)
		}
	}
	if p, _ := replay.Next(); p != nil {
		t.Fatal("replay produced extra packets")
	}

	// Rescaled replay: half-scale halves the span past the first record.
	fast, err := replayFile(path, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var lastAt sim.Time
	for {
		p, at := fast.Next()
		if p == nil {
			break
		}
		lastAt = at
	}
	first, last := recs[0].Arrival, recs[len(recs)-1].Arrival
	wantLast := first + (last-first)/2
	if math.Abs(float64(lastAt-wantLast)) > 2 {
		t.Fatalf("half-scale replay ends at %d, want ~%d", lastAt, wantLast)
	}
}

// TestLoadScale checks the scale derived from a trace's scan stats
// hits the target load on the busiest input, and that New derives the
// same scale from the matrix load when ReplayScale is 0.
func TestLoadScale(t *testing.T) {
	path, _ := writeTrace(t, buildStream(t, KindUniform, 5), 8, 100*sim.Microsecond)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := traffic.ScanTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	scale := LoadScale(st, testRate, 0.35)
	// Replay at that scale, then re-measure the busiest input's load.
	var rescaled bytes.Buffer
	tw, err := traffic.NewTraceWriter(&rescaled, 8)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := traffic.NewTraceStream(bytes.NewReader(raw), scale)
	if err != nil {
		t.Fatal(err)
	}
	for p, _ := ts.Next(); p != nil; p, _ = ts.Next() {
		if err := tw.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	tw.Finish()
	got, err := traffic.ScanTrace(&rescaled)
	if err != nil {
		t.Fatal(err)
	}
	if busiest := float64(got.MeanRatePerInput()) / float64(testRate); busiest < 0.3 || busiest > 0.42 {
		t.Fatalf("rescaled busiest-input load %.3f, want ~0.35", busiest)
	}
	if again := LoadScale(got, testRate, 0.35); math.Abs(again-1) > 1e-3 {
		t.Fatalf("rescaled trace has scale %g, want ~1", again)
	}

	// New with ReplayScale 0 rescales to the matrix's load.
	derived, err := New(Config{Kind: KindReplay, ReplayPath: path}, traffic.Uniform(8, 0.35),
		testRate, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	ts2, err := traffic.NewTraceStream(bytes.NewReader(raw), scale)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		p, at := derived.Next()
		q, qat := ts2.Next()
		if p == nil || q == nil {
			if p != q {
				t.Fatalf("derived-scale replay length differs at packet %d", i)
			}
			break
		}
		if *p != *q || at != qat {
			t.Fatalf("packet %d: derived scale gives %+v, explicit %+v", i, *p, *q)
		}
	}
}

// traceRec is one raw trace record, free of TraceWriter's checks so a
// test can write what a foreign producer might.
type traceRec struct {
	at      uint64
	size    uint32
	in, out uint16
}

// rawTrace encodes an n-port trace file holding recs.
func rawTrace(t *testing.T, n int, recs ...traceRec) string {
	t.Helper()
	var buf bytes.Buffer
	tw, err := traffic.NewTraceWriter(&buf, n)
	if err != nil {
		t.Fatal(err)
	}
	tw.Finish()
	for _, r := range recs {
		var b [32]byte
		binary.LittleEndian.PutUint64(b[0:], r.at)
		binary.LittleEndian.PutUint32(b[8:], r.size)
		binary.LittleEndian.PutUint16(b[12:], r.in)
		binary.LittleEndian.PutUint16(b[14:], r.out)
		buf.Write(b[:])
	}
	path := filepath.Join(t.TempDir(), "raw.trace")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReplayValidation checks the replay workload refuses malformed
// traces before the run, naming the bad record where there is one.
func TestReplayValidation(t *testing.T) {
	ok := traceRec{at: 10, size: 64, in: 0, out: 1}
	cases := []struct {
		name, path, want string
	}{
		{"empty", rawTrace(t, 8), "empty"},
		{"garbage", func() string {
			path := filepath.Join(t.TempDir(), "garbage.trace")
			os.WriteFile(path, []byte("not a trace at all"), 0o644)
			return path
		}(), "not a pbrouter trace"},
		{"header-n-mismatch", rawTrace(t, 4, ok), "4 ports"},
		{"negative-time", rawTrace(t, 8, ok, traceRec{at: 1 << 63, size: 64}), "packet 2"},
		{"out-of-order", rawTrace(t, 8, ok, traceRec{at: 5, size: 64}), "packet 2"},
		{"bad-size", rawTrace(t, 8, ok, traceRec{at: 20, size: 0}), "packet 2"},
		{"oversize", rawTrace(t, 8, ok, traceRec{at: 20, size: packet.MaxSize + 1}), "packet 2"},
		// A producer writing port -1 leaves 0xffff on disk.
		{"negative-port", rawTrace(t, 8, ok, traceRec{at: 20, size: 64, in: 0xffff}), "packet 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := replayFile(tc.path, 0)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got error %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestReplayRejectsPortsBeyondGeometry checks New refuses a replay
// record whose port is not on the switch, naming the record, instead
// of handing the simulator an out-of-range port.
func TestReplayRejectsPortsBeyondGeometry(t *testing.T) {
	first := traceRec{at: 1, size: 64, in: 0, out: 7}
	for _, bad := range []traceRec{
		{at: 5, size: 64, in: 99, out: 3},
		{at: 5, size: 64, in: 3, out: 8},
	} {
		_, err := replayFile(rawTrace(t, 8, first, bad), 0)
		if err == nil || !strings.Contains(err.Error(), "packet 2") {
			t.Fatalf("record %+v on an 8-port switch: got error %v, want one naming packet 2", bad, err)
		}
	}
}

// TestConfigCheck is the table-driven validation sweep.
func TestConfigCheck(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		ok   bool
	}{
		{"defaults", func(c *Config) {}, true},
		{"bad-kind", func(c *Config) { c.Kind = "nope" }, false},
		{"bad-flow-dist", func(c *Config) { c.FlowDist = "weibull" }, false},
		{"tail-too-light", func(c *Config) { c.TailAlpha = 9 }, false},
		{"tail-at-one", func(c *Config) { c.TailAlpha = 1 }, false},
		{"lognormal", func(c *Config) { c.FlowDist = "lognormal" }, true},
		{"burst-below-one", func(c *Config) { c.BurstRatio = 0.5 }, false},
		{"bad-on-dist", func(c *Config) { c.OnDist = "uniform" }, false},
		{"amplitude-one", func(c *Config) { c.Amplitude = 1 }, false},
		{"replay-no-path", func(c *Config) { c.Kind = KindReplay }, false},
		{"negative-scale", func(c *Config) { c.ReplayScale = -1 }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{}
			cfg.Normalize()
			tc.mut(&cfg)
			err := cfg.Check()
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("bad config accepted")
			}
		})
	}
}
