package workload

import (
	"bytes"
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

// TestReplayRoundTrip captures a generated stream to NDJSON, reads it
// back, and replays it: the replay must reproduce the same
// (time, input, output, size) sequence at scale 1, and rescaling must
// compress the time axis.
func TestReplayRoundTrip(t *testing.T) {
	horizon := 20 * sim.Microsecond
	recs := Capture(buildStream(t, KindHeavyTail, 3), horizon)
	if len(recs) == 0 {
		t.Fatal("capture produced no records")
	}
	var buf bytes.Buffer
	if err := WriteRecords(&buf, recs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(recs) {
		t.Fatalf("round trip lost records: %d -> %d", len(recs), len(back))
	}
	replay := NewReplay(back, 1)
	for i := range back {
		p, at := replay.Next()
		if p == nil {
			t.Fatalf("replay ended early at %d/%d", i, len(back))
		}
		if int64(at) != recs[i].TimePs || p.Input != recs[i].Input ||
			p.Output != recs[i].Output || p.Size != recs[i].Size {
			t.Fatalf("record %d diverged: got (%d,%d,%d,%d) want (%d,%d,%d,%d)",
				i, at, p.Input, p.Output, p.Size,
				recs[i].TimePs, recs[i].Input, recs[i].Output, recs[i].Size)
		}
	}
	if p, _ := replay.Next(); p != nil {
		t.Fatal("replay produced extra packets")
	}

	// Rescaled replay: half-scale halves the span past the first record.
	fast := NewReplay(back, 0.5)
	var lastAt sim.Time
	for {
		p, at := fast.Next()
		if p == nil {
			break
		}
		lastAt = at
	}
	span := recs[len(recs)-1].TimePs - recs[0].TimePs
	wantLast := recs[0].TimePs + span/2
	if math.Abs(float64(int64(lastAt)-wantLast)) > 2 {
		t.Fatalf("half-scale replay ends at %d, want ~%d", lastAt, wantLast)
	}
}

// TestLoadScale checks the derived scale hits the target load on the
// busiest input.
func TestLoadScale(t *testing.T) {
	recs := Capture(buildStream(t, KindUniform, 5), 100*sim.Microsecond)
	scale := LoadScale(recs, testRate, 0.35)
	// Replay at that scale, then re-measure the busiest input's load.
	replay := NewReplay(recs, scale)
	perInput := map[int]int64{}
	var first, last sim.Time
	n := 0
	for {
		p, at := replay.Next()
		if p == nil {
			break
		}
		if n == 0 {
			first = at
		}
		last = at
		n++
		perInput[p.Input] += int64(p.Size)
	}
	var busiest float64
	for _, bytes := range perInput {
		if l := float64(bytes*8) / sim.BitsIn(last-first, testRate); l > busiest {
			busiest = l
		}
	}
	if busiest < 0.3 || busiest > 0.42 {
		t.Fatalf("rescaled busiest-input load %.3f, want ~0.35", busiest)
	}
}

// TestReplayValidation checks the NDJSON reader rejects malformed
// traces.
func TestReplayValidation(t *testing.T) {
	cases := []struct{ name, trace string }{
		{"empty", ""},
		{"garbage", "not json\n"},
		{"negative-time", `{"t_ps":-1,"in":0,"out":0,"size":64}` + "\n"},
		{"out-of-order", `{"t_ps":10,"in":0,"out":0,"size":64}` + "\n" + `{"t_ps":5,"in":0,"out":0,"size":64}` + "\n"},
		{"bad-size", `{"t_ps":1,"in":0,"out":0,"size":0}` + "\n"},
		{"negative-port", `{"t_ps":1,"in":-1,"out":0,"size":64}` + "\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadRecords(bytes.NewReader([]byte(tc.trace))); err == nil {
				t.Fatal("malformed trace accepted")
			}
		})
	}
}

// TestReplayRejectsPortsBeyondGeometry checks New refuses a replay
// record whose port is not on the switch, naming the line, instead of
// handing the simulator an out-of-range port.
func TestReplayRejectsPortsBeyondGeometry(t *testing.T) {
	for _, rec := range []string{
		`{"t_ps":5,"in":99,"out":3,"size":64}`,
		`{"t_ps":5,"in":3,"out":16,"size":64}`,
	} {
		path := filepath.Join(t.TempDir(), "trace.ndjson")
		trace := `{"t_ps":1,"in":0,"out":15,"size":64}` + "\n\n" + rec + "\n"
		if err := os.WriteFile(path, []byte(trace), 0o644); err != nil {
			t.Fatal(err)
		}
		cfg := Config{Kind: KindReplay, ReplayPath: path}
		_, err := New(cfg, traffic.Uniform(16, 0.5), testRate, sim.NewRNG(1))
		if err == nil || !strings.Contains(err.Error(), "line 3") {
			t.Fatalf("record %s on a 16-port switch: got error %v, want one naming line 3", rec, err)
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
