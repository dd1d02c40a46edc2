package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"pbrouter/internal/hbmswitch"
	"pbrouter/internal/packet"
	"pbrouter/internal/sim"
	"pbrouter/internal/traffic"
)

// BENCHMARK.json must name exactly the workloads and metrics the
// program prints.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", what, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: %s %s vs %s %s", what, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// The timed stream must keep the switch's packet pooling on and leave
// the simulated report byte-identical.
func TestTimedStreamKeepsPooling(t *testing.T) {
	run := func(timed bool) (*hbmswitch.Report, packet.PoolStats) {
		cfg := hbmswitch.Reference()
		cfg.Speedup = 1.1
		sw, err := hbmswitch.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mux := traffic.NewMux(traffic.UniformSources(traffic.Uniform(cfg.PFI.N, 0.9), cfg.PortRate,
			traffic.Poisson, traffic.Fixed(64), sim.NewRNG(3)))
		var s traffic.Stream = mux
		if timed {
			s = &timedStream{mux: mux}
		}
		rep, err := sw.Run(s, sim.Microsecond)
		if err != nil {
			t.Fatal(err)
		}
		return rep, sw.CoreStats().Packet
	}
	plain, _ := run(false)
	timed, pool := run(true)
	if pool.Recycles == 0 {
		t.Error("no packets recycled through the timed stream")
	}
	d1, _, p1 := checkReports([]*hbmswitch.Report{plain})
	d2, _, p2 := checkReports([]*hbmswitch.Report{timed})
	if len(p1)+len(p2) > 0 || d1 != d2 {
		t.Errorf("digests %s vs %s, problems %v %v", d1, d2, p1, p2)
	}
}

func TestParseTraces(t *testing.T) {
	const text = `File: perfbench
Type: cpu
-----------+-------------------------------------------------------
10000000ns   runtime.mallocgc
             pbrouter/internal/packet.(*Pool).Get (inline)
             main.main
-----------+-------------------------------------------------------
30000000ns   pbrouter/internal/parallel.Map[go.shape.struct { A int }].func1
-----------+-------------------------------------------------------
`
	got, err := parseTraces(text)
	if err != nil {
		t.Fatal(err)
	}
	want := []cpuSample{
		{stack: []string{"runtime.mallocgc", "pbrouter/internal/packet.(*Pool).Get", "main.main"}, ns: 1e7},
		{stack: []string{"pbrouter/internal/parallel.Map[go.shape.struct { A int }].func1"}, ns: 3e7},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseTraces = %q, want %q", got, want)
	}
	if _, err := parseTraces(traceRule + "\nten   main.main\n"); err == nil {
		t.Error("a bad value parsed")
	}
}

func TestLayerOf(t *testing.T) {
	for stack, want := range map[string]string{
		"pbrouter/internal/traffic.(*Mux).Next":                 "traffic",
		"runtime.mallocgc|pbrouter/internal/packet.(*Pool).Get": "packet",
		"main.(*timedStream).Next":                              "bench",
		"pbrouter/router.RunExperiment":                         "other",
		"net/http.(*conn).serve":                                "nethttp",
		"runtime.gcBgMarkWorker":                                "runtime",
	} {
		if got := layerOf(strings.Split(stack, "|")); got != want {
			t.Errorf("layerOf(%s) = %s, want %s", stack, got, want)
		}
	}
}

func TestJobList(t *testing.T) {
	a, b := jobList(7), jobList(7)
	counts := map[string]int{}
	for i := range a {
		ja, _ := json.Marshal(a[i].spec)
		jb, _ := json.Marshal(b[i].spec)
		if !bytes.Equal(ja, jb) {
			t.Fatalf("job %d differs between two lists of one seed", i)
		}
		counts[a[i].kind]++
	}
	for _, m := range jobMix {
		if counts[m.kind] != m.count {
			t.Errorf("%s: %d jobs, want %d", m.kind, counts[m.kind], m.count)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if q := quantile(xs, 0.5); q != 2.5 {
		t.Errorf("median = %v", q)
	}
	if q := quantile(xs, 1); q != 4 {
		t.Errorf("max = %v", q)
	}
}
