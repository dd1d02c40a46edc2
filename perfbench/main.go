// Command perfbench is the repository's host-time benchmark. It runs
// one workload against the simulator or its job path, checks every
// output, and prints each metric by name with its unit; the last line
// of standard output is one JSON object:
//
//	{"correct":true,"attempted":12,"failed":0,"metrics":{"setup_s":{"value":0.0021,"unit":"s"},...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run measures the same workload untraced and then traced, and prints
// the per-layer ones. See README.md for the workloads and every metric.
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload switch64 --seed 1 --seconds 22 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// defaultSeed is the seed whose outputs are pinned in pins.go; other
// seeds are checked for agreement across repeated operations instead.
const defaultSeed = 1

// metricDef is one reported metric. BENCHMARK.json lists the same
// names and units.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the simulator or the daemon sees. On the
// simulator workloads a "job" is one simulated microsecond (the epoch
// step the sharded runner and spsd's progress stream report); on the
// job workloads it is one spsd job.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"pkts_per_s", "1/s"},
	{"allocs_per_pkt", "count"},
	{"peak_heap_mb", "MB"},
	{"job_p50_ms", "ms"},
	{"job_p95_ms", "ms"},
	{"jobs_per_s", "1/s"},
}

// perLayer is measured by the traced run. A layer that does no work on
// a workload reads 0 there.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"traffic.next_calls", "count"},
		{"traffic.next_ns", "ns"},
		{"traffic.share", "ratio"},
		{"sim.events_per_pkt", "count"},
		{"sim.cascade_events_per_event", "ratio"},
		{"hbmswitch.self_ns_per_pkt", "ns"},
		{"hbmswitch.drain_share", "ratio"},
		{"hbmswitch.sim_bypass_ratio", "ratio"},
		{"hbmswitch.sim_hbm_util", "ratio"},
		{"hbmswitch.sim_p99_latency_ns", "ns"},
		{"packet.packet_pool_hit_ratio", "ratio"},
		{"packet.batch_pool_hit_ratio", "ratio"},
		{"packet.frame_pool_hit_ratio", "ratio"},
		{"sps.epoch_ms", "ms"},
		{"sps.barrier_wait_share", "ratio"},
		{"sps.finish_share", "ratio"},
		{"telemetry.trace_bytes", "bytes"},
		{"telemetry.trace_fetch_ms", "ms"},
		{"serve.submit_ms", "ms"},
		{"serve.queue_wait_ms", "ms"},
		{"serve.path_ms", "ms"},
		{"serve.result_bytes", "bytes"},
	}
	for _, k := range jobKindNames {
		defs = append(defs, metricDef{"serve.run_ms." + k, "ms"})
	}
	defs = append(defs,
		metricDef{"fleet.units_per_job", "count"},
		metricDef{"fleet.unit_retries", "count"},
		metricDef{"fleet.duplicate_units", "count"},
		metricDef{"fleet.unit_latency_ewma_ms", "ms"},
		metricDef{"fleet.pick_skew", "ratio"},
		metricDef{"runtime.gc_cycles_per_op", "count"},
		metricDef{"runtime.gc_cpu_share", "ratio"},
		metricDef{"trace.overhead_ratio", "ratio"},
	)
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{l + ".cpu_share", "ratio"})
	}
	return defs
}()

// runConfig is one invocation's settings.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	spans   *spanLog // nil unless tracing
}

// result is what a workload measured and checked.
type result struct {
	attempted int
	failed    int
	problems  []string
	values    map[string]float64
	samples   map[string]int    // sample count behind a timing
	notes     map[string]string // metric -> how it was measured, when not by the obvious route
	info      []string          // context printed above the metrics
}

func newResult() *result {
	return &result{values: map[string]float64{}, samples: map[string]int{}, notes: map[string]string{}}
}

// op records one attempted operation and whatever its checks found.
func (r *result) op(problems []string) {
	r.attempted++
	if len(problems) > 0 {
		r.failed++
		r.problems = append(r.problems, problems...)
	}
}

type workloadDef struct {
	name string
	run  func(runConfig) (*result, error)
}

var workloads = []workloadDef{
	{"switch64", runSwitch64},
	{"sps_full", runSPSFull},
	{"spsd_mix", func(c runConfig) (*result, error) { return runJobs(c, false) }},
	{"fleet_mix", func(c runConfig) (*result, error) { return runJobs(c, true) }},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: switch64|sps_full|spsd_mix|fleet_mix")
		seed    = flag.Uint64("seed", defaultSeed, "input seed")
		seconds = flag.Int("seconds", 10, "measured seconds per phase")
		trace   = flag.Int("trace", 0, "1 measures per-layer metrics in a traced run")
		pins    = flag.Bool("print-pins", false, "print the output digests of the default seed (to update pins.go) and exit")
	)
	flag.Parse()
	if *pins {
		if err := printPins(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var wl *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload switch64|sps_full|spsd_mix|fleet_mix --seed N --seconds N --trace 0|1\n")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	if cfg.trace {
		cfg.spans = &spanLog{t0: time.Now()}
	}
	res, err := wl.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	if cfg.trace {
		dir := filepath.Join(".bench_build", "perfbench")
		path := filepath.Join(dir, wl.name+".spans.json")
		if err := cfg.spans.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			os.Exit(1)
		}
		fmt.Printf("spans: %s (Chrome trace-event JSON)\n", path)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	if err := report(os.Stdout, wl.name, cfg, res, defs); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// report prints the human-readable table and then the JSON line.
func report(w io.Writer, name string, cfg runConfig, res *result, defs []metricDef) error {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d trace=%v\n", name, cfg.seed, int(cfg.seconds/time.Second), cfg.trace)
	for _, l := range res.info {
		fmt.Fprintln(w, "  "+l)
	}
	if cfg.trace {
		fmt.Fprintln(w, "  (metrics of layers this workload does not reach read 0)")
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{Correct: len(res.problems) == 0 && res.attempted > 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]jm{}}
	for _, d := range defs {
		v, ok := res.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s was not measured", name, d.name)
		}
		line := fmt.Sprintf("  %-32s %14.6g %s", d.name, v, d.unit)
		if n, ok := res.samples[d.name]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		if note, ok := res.notes[d.name]; ok {
			line += "  [" + note + "]"
		}
		fmt.Fprintln(w, line)
		out.Metrics[d.name] = jm{Value: v, Unit: d.unit}
	}
	rate := 0.0
	if res.attempted > 0 {
		rate = float64(res.failed) / float64(res.attempted)
	}
	fmt.Fprintf(w, "  %-32s %14.6g ratio  (%d failed of %d attempted)\n", "error_rate", rate, res.failed, res.attempted)
	for _, p := range res.problems {
		fmt.Fprintln(w, "  FAILED CHECK:", p)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// spanLog keeps trace spans in memory until the run ends. A nil
// *spanLog records nothing, so untraced code paths call it freely.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// span is one timed call across a layer boundary. Spans of one
// operation (a simulation run or a job) share a trace id; parent is
// the id of the enclosing span, 0 at the top.
type span struct {
	name          string
	trace, parent int
	id            int
	start, end    time.Time
}

// open records a span that starts at start and returns its id, for
// its children and for close (0 when not tracing).
func (l *spanLog) open(name string, trace, parent int, start time.Time) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{name: name, trace: trace, parent: parent, id: id, start: start})
	return id
}

// close ends the span id at end.
func (l *spanLog) close(id int, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].end = end
}

// add records a finished span.
func (l *spanLog) add(name string, trace, parent int, start, end time.Time) {
	l.close(l.open(name, trace, parent, start), end)
}

// write stores the spans as Chrome trace-event JSON, one track per
// operation, loadable in Perfetto.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	spans := append([]span(nil), l.spans...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].start.Before(spans[j].start) })
	evs := make([]event, 0, len(spans))
	for _, s := range spans {
		evs = append(evs, event{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start.Sub(l.t0).Nanoseconds()) / 1e3,
			Dur: float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.trace,
			Args: map[string]int{"id": s.id, "parent": s.parent},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
