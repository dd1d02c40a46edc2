package hbmswitch

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"pbrouter/internal/sim"
	"pbrouter/internal/traffic"
	"pbrouter/internal/workload"
)

func TestTraceReplayMatchesLiveRun(t *testing.T) {
	// A recorded workload replayed through the switch must produce the
	// identical report (packet counts, latency, frame activity) as the
	// live run that generated it — the repeatability property traces
	// exist for.
	cfg := Reference()
	cfg.Speedup = 1.1
	horizon := 10 * sim.Microsecond

	// Record.
	rng := sim.NewRNG(77)
	srcs := traffic.UniformSources(traffic.Uniform(16, 0.7), cfg.PortRate,
		traffic.Poisson, traffic.IMIX(), rng)
	var buf bytes.Buffer
	tw, err := traffic.NewTraceWriter(&buf, 16)
	if err != nil {
		t.Fatal(err)
	}
	mux := traffic.NewMux(srcs)
	for {
		p, at := mux.Next()
		if p == nil || at > horizon {
			break
		}
		if err := tw.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tw.Finish(); err != nil {
		t.Fatal(err)
	}
	traceBytes := append([]byte(nil), buf.Bytes()...)

	// Live run with the same seed.
	swLive, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srcs2 := traffic.UniformSources(traffic.Uniform(16, 0.7), cfg.PortRate,
		traffic.Poisson, traffic.IMIX(), sim.NewRNG(77))
	live, err := swLive.Run(traffic.NewMux(srcs2), horizon)
	if err != nil {
		t.Fatal(err)
	}

	// Replay.
	swReplay, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := traffic.NewTraceStream(bytes.NewReader(traceBytes), 1)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := swReplay.Run(ts, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Err() != nil {
		t.Fatal(ts.Err())
	}

	if live.OfferedPackets != replay.OfferedPackets ||
		live.DeliveredPackets != replay.DeliveredPackets ||
		live.DeliveredBytes != replay.DeliveredBytes ||
		live.LatencyMean != replay.LatencyMean ||
		live.FramesWritten != replay.FramesWritten ||
		live.FramesBypassed != replay.FramesBypassed {
		t.Fatalf("replay diverged:\nlive:   %v\nreplay: %v", live, replay)
	}
	if len(replay.Errors) > 0 {
		t.Fatalf("replay errors: %v", replay.Errors)
	}

	// The replay workload reads the same trace from a file in two
	// passes; at scale 1 it must reproduce the live run too.
	path := filepath.Join(t.TempDir(), "live.trace")
	if err := os.WriteFile(path, traceBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	wl, err := workload.New(workload.Config{Kind: workload.KindReplay, ReplayPath: path, ReplayScale: 1},
		traffic.Uniform(16, 0.7), cfg.PortRate, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	swWorkload, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	viaWorkload, err := swWorkload.Run(wl, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if ts := wl.(*traffic.TraceStream); ts.Err() != nil || ts.Close() != nil {
		t.Fatalf("replay workload stream: %v", ts.Err())
	}
	var liveJSON, wlJSON bytes.Buffer
	if err := live.WriteJSON(&liveJSON); err != nil {
		t.Fatal(err)
	}
	if err := viaWorkload.WriteJSON(&wlJSON); err != nil {
		t.Fatal(err)
	}
	if liveJSON.String() != wlJSON.String() {
		t.Fatalf("replay workload diverged:\nlive:     %s\nworkload: %s", liveJSON.String(), wlJSON.String())
	}
}
