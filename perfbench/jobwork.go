package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pbrouter/internal/arch"
	"pbrouter/internal/corestats"
	"pbrouter/internal/fleet"
	"pbrouter/internal/resilience"
	"pbrouter/internal/serve"
	"pbrouter/internal/sim"
	"pbrouter/internal/splitpolicy"
	"pbrouter/internal/workload"
)

// jobClients is the closed loop's client count: each client waits
// for its job's result before submitting the next.
const jobClients = 2

// jobKindNames are the job list's kinds; serve.run_ms.<kind> is
// reported for each.
var jobKindNames = []string{"sim", "sim_traced", "sweep", "validate", "resilience", "split", "arch"}

// jobMix is one round of the job list: how many jobs of each kind.
// The weights put p50 inside the arch jobs' latency mode and p95
// inside the traced sims', so neither percentile sits between two
// modes. Short jobs (sweep E1, almost pure job-path cost, and arch at
// about a millisecond) are 80% of the list because behind the fleet
// a short job's unit can queue behind a long one on a busy backend:
// the unqueued short jobs must still cover the median. The traced
// sims are the top 8%, where p95 falls.
var jobMix = []struct {
	kind  string
	count int
}{
	{"sweep", 21}, {"arch", 27}, {"sim", 3}, {"validate", 2},
	{"resilience", 1}, {"split", 1}, {"sim_traced", 5},
}

// jobSpec is one small deterministic job of a kind.
func jobSpec(kind string, seed uint64) serve.Spec {
	switch kind {
	case "sim":
		return serve.Spec{Kind: serve.KindSim, Sim: &serve.SimSpec{Load: 0.6, HorizonPs: 2 * sim.Microsecond, Seed: seed}}
	case "sim_traced":
		// Sample 8 keeps the trace job's cost proportionate: the
		// tracer's cost grows faster than the horizon.
		return serve.Spec{Kind: serve.KindSim, Sim: &serve.SimSpec{Sizes: "imix", HorizonPs: 5 * sim.Microsecond, Seed: seed, TraceSample: 8}}
	case "sweep":
		return serve.Spec{Kind: serve.KindSweep, Sweep: &serve.SweepSpec{Experiment: "E1", Quick: true, Seed: seed}}
	case "validate":
		return serve.Spec{Kind: serve.KindValidate, Validate: &serve.ValidateSpec{Seed: seed, Cases: 3, HorizonUs: 2}}
	case "resilience":
		return serve.Spec{Kind: serve.KindResilience, Resilience: &resilience.SweepConfig{
			Mode: resilience.ModeFailedSwitches, MaxFailed: 1, HorizonPs: 5 * sim.Microsecond, Seed: seed}}
	case "split":
		return serve.Spec{Kind: serve.KindSplit, Split: &splitpolicy.SweepConfig{
			Policies:  []string{splitpolicy.PolicyStatic, splitpolicy.PolicyP2C},
			Workloads: []string{splitpolicy.WorkloadElephants}, HorizonPs: 8 * sim.Microsecond, Seed: seed}}
	case "arch":
		return serve.Spec{Kind: serve.KindArch, Arch: &arch.SweepConfig{
			Archs: []string{arch.ArchOQ, arch.ArchCQ}, Workloads: []string{workload.KindUniform},
			N: 4, HorizonPs: 4 * sim.Microsecond, Seed: seed}}
	}
	panic("perfbench: unknown job kind " + kind)
}

type jobEntry struct {
	kind string
	spec serve.Spec
}

// jobList is the fixed round: the kinds spread evenly through it in a
// fixed order, job i seeded from the benchmark seed and i.
func jobList(seed uint64) []jobEntry {
	type slot struct {
		pos  float64
		kind int
	}
	var slots []slot
	for k, m := range jobMix {
		for j := 0; j < m.count; j++ {
			slots = append(slots, slot{(float64(j) + 0.5) / float64(m.count), k})
		}
	}
	sort.SliceStable(slots, func(a, b int) bool { return slots[a].pos < slots[b].pos })
	list := make([]jobEntry, len(slots))
	for i, s := range slots {
		kind := jobMix[s.kind].kind
		list[i] = jobEntry{kind, jobSpec(kind, seed*1000+uint64(i)+1)}
	}
	return list
}

// target is one started job service: a daemon, or a coordinator in
// front of daemons, behind loopback HTTP.
type target struct {
	base  string
	fleet bool
	stop  func()
}

// startSpsd starts an in-process daemon with the given worker count.
func startSpsd(workers int) (*target, error) {
	srv, err := serve.New(serve.Config{Workers: workers})
	if err != nil {
		return nil, err
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	return &target{base: ts.URL, stop: func() {
		ts.Close()
		srv.Drain(context.Background())
	}}, nil
}

// startFleet starts a coordinator in front of two daemons of one
// worker each.
func startFleet() (*target, error) {
	var backends []*target
	stopAll := func() {
		for _, b := range backends {
			b.stop()
		}
	}
	cfg := fleet.Config{}
	for i := 0; i < 2; i++ {
		b, err := startSpsd(1)
		if err != nil {
			stopAll()
			return nil, err
		}
		backends = append(backends, b)
		cfg.Backends = append(cfg.Backends, b.base)
	}
	c, err := fleet.New(cfg)
	if err != nil {
		stopAll()
		return nil, err
	}
	c.Start()
	ts := httptest.NewServer(c.Handler())
	return &target{base: ts.URL, fleet: true, stop: func() {
		ts.Close()
		c.Drain(context.Background())
		stopAll()
	}}, nil
}

// jobRecord is one job as the client saw it.
type jobRecord struct {
	index      int
	kind       string
	latency    time.Duration // submit until the result is read
	submit     time.Duration
	traceFetch time.Duration
	units      int
	// result and trace are dropped once checked; a run keeps only
	// their sizes, so the benchmark's own heap stays flat.
	result, trace       []byte
	resultLen, traceLen int
	run, queue          time.Duration // from the daemon's JobDetail stamps (traced spsd runs)
	pkts                int64
	err                 error
}

// client is the closed loop's HTTP client: keep-alive, at most one
// connection per client.
type client struct {
	http   *http.Client
	detail bool // fetch JobDetail stamps (traced runs against spsd)
	spans  *spanLog
}

func newClient() *client {
	return &client{http: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: jobClients, MaxIdleConnsPerHost: jobClients, DisableCompression: true,
	}}}
}

func (c *client) get(url string) ([]byte, error) {
	resp, err := c.http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// do submits one job, follows its NDJSON stream to the end, and
// fetches its result (and its trace, for traced sims on spsd).
func (c *client) do(tg *target, e jobEntry, rec *jobRecord, traceID int) error {
	body, err := json.Marshal(e.spec)
	if err != nil {
		return err
	}
	start := time.Now()
	jobSpan := c.spans.open("job."+e.kind, traceID, 0, start)
	defer func() { c.spans.close(jobSpan, time.Now()) }()
	resp, err := c.http.Post(tg.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	var st serve.Status
	if err := json.Unmarshal(b, &st); err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	submitted := time.Now()
	rec.submit = submitted.Sub(start)
	rec.units = st.UnitsTotal
	c.spans.add("serve.submit", traceID, jobSpan, start, submitted)

	state, msg, err := c.follow(tg.base + "/jobs/" + st.ID + "/stream")
	if err != nil {
		return err
	}
	streamed := time.Now()
	c.spans.add("serve.stream", traceID, jobSpan, submitted, streamed)
	if state != serve.StateDone {
		return fmt.Errorf("job %s ended %s: %s", st.ID, state, msg)
	}
	if rec.result, err = c.get(tg.base + "/jobs/" + st.ID + "/result"); err != nil {
		return err
	}
	end := time.Now()
	rec.latency = end.Sub(start)
	c.spans.add("serve.result", traceID, jobSpan, streamed, end)

	if !tg.fleet && e.kind == "sim_traced" {
		t0 := time.Now()
		if rec.trace, err = c.get(tg.base + "/api/v1/jobs/" + st.ID + "/trace"); err != nil {
			return err
		}
		rec.traceFetch = time.Since(t0)
		c.spans.add("telemetry.trace_fetch", traceID, jobSpan, t0, t0.Add(rec.traceFetch))
	}
	if c.detail && !tg.fleet {
		b, err := c.get(tg.base + "/api/v1/jobs/" + st.ID)
		if err != nil {
			return err
		}
		var d serve.JobDetail
		if err := json.Unmarshal(b, &d); err != nil {
			return fmt.Errorf("job detail: %w", err)
		}
		sub, err1 := time.Parse(time.RFC3339Nano, d.Submitted)
		run, err2 := time.Parse(time.RFC3339Nano, d.Started)
		fin, err3 := time.Parse(time.RFC3339Nano, d.Finished)
		if err := errors.Join(err1, err2, err3); err != nil {
			return fmt.Errorf("job detail stamps: %w", err)
		}
		rec.queue, rec.run = run.Sub(sub), fin.Sub(run)
	}
	if e.spec.Kind == serve.KindSim {
		var r struct {
			Delivered int64 `json:"delivered_packets"`
		}
		if err := json.Unmarshal(rec.result, &r); err != nil {
			return fmt.Errorf("sim result: %w", err)
		}
		rec.pkts = r.Delivered
	}
	return nil
}

// follow reads a job's NDJSON event stream until the server ends it
// and returns the last state event.
func (c *client) follow(url string) (serve.State, string, error) {
	resp, err := c.http.Get(url)
	if err != nil {
		return "", "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return "", "", fmt.Errorf("stream: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	var state serve.State
	var msg string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var ev struct {
			Event string      `json:"event"`
			State serve.State `json:"state"`
			Error string      `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return "", "", fmt.Errorf("stream: %w", err)
		}
		if ev.Event == "state" {
			state, msg = ev.State, ev.Error
		}
	}
	return state, msg, sc.Err()
}

func jobKey(index int) string { return "job/" + strconv.Itoa(index) }

// round is one pass over the job list against one fresh target.
type round struct {
	records []jobRecord
	setup   time.Duration // target start until it answers /healthz
	wall    time.Duration // first submit until the last result
	mem     memSnap
	peakMB  float64
	info    *fleet.Info
}

// jobRunner runs rounds of the job list. Every round starts a fresh
// target: spsd keeps each job's result and trace in memory for the
// daemon's lifetime, so one daemon serving the whole run would grow
// its heap by megabytes per traced job and no two rounds would
// measure the same program.
type jobRunner struct {
	list   []jobEntry
	fleet  bool
	cl     *client
	expect *expectations
	hs     *heapSampler
	res    *result
	jobs   int // trace ids
}

func (r *jobRunner) start(fleetTarget bool) (*target, time.Duration, error) {
	t0 := time.Now()
	var tg *target
	var err error
	if fleetTarget {
		tg, err = startFleet()
	} else {
		tg, err = startSpsd(2)
	}
	if err != nil {
		return nil, 0, err
	}
	if _, err := r.cl.get(tg.base + "/healthz"); err != nil {
		tg.stop()
		return nil, 0, err
	}
	return tg, time.Since(t0), nil
}

func (r *jobRunner) round(fleetTarget bool) (round, error) {
	var rd round
	tg, setup, err := r.start(fleetTarget)
	if err != nil {
		return rd, err
	}
	defer r.cl.http.CloseIdleConnections()
	defer tg.stop()
	rd.setup = setup
	runtime.GC() // each round starts from the same heap; its peak and GC counts are its own
	r.hs.take()
	before := readMem()
	rd.records = make([]jobRecord, len(r.list))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	base := r.jobs
	for c := 0; c < jobClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(r.list) {
					return
				}
				rec := &rd.records[i]
				rec.index, rec.kind = i, r.list[i].kind
				rec.err = r.cl.do(tg, r.list[i], rec, base+i+1)
			}
		}()
	}
	wg.Wait()
	rd.wall = time.Since(start)
	rd.mem = readMem().sub(before)
	rd.peakMB = r.hs.take()
	r.jobs += len(r.list)
	if tg.fleet {
		b, err := r.cl.get(tg.base + "/fleet")
		if err != nil {
			return rd, err
		}
		rd.info = &fleet.Info{}
		if err := json.Unmarshal(b, rd.info); err != nil {
			return rd, fmt.Errorf("/fleet: %w", err)
		}
	}
	for i := range rd.records {
		rec := &rd.records[i]
		var probs []string
		if rec.err != nil {
			probs = append(probs, fmt.Sprintf("job %d (%s): %v", rec.index, rec.kind, rec.err))
		} else {
			if p := r.expect.check(jobKey(rec.index), shortDigest(rec.result)); p != "" {
				probs = append(probs, p)
			}
			if rec.trace != nil {
				if p := r.expect.check(jobKey(rec.index)+"/trace", shortDigest(rec.trace)); p != "" {
					probs = append(probs, p)
				}
			}
		}
		r.res.op(probs)
		rec.resultLen, rec.traceLen = len(rec.result), len(rec.trace)
		rec.result, rec.trace = nil, nil
	}
	return rd, nil
}

// rounds runs whole rounds until d has passed (at least one).
func (r *jobRunner) rounds(d time.Duration) ([]round, error) {
	var rds []round
	start := time.Now()
	for len(rds) == 0 || time.Since(start) < d {
		rd, err := r.round(r.fleet)
		if err != nil {
			return nil, err
		}
		rds = append(rds, rd)
	}
	return rds, nil
}

// runJobs drives spsd_mix (fleet false) or fleet_mix (fleet true).
func runJobs(cfg runConfig, fleetMix bool) (*result, error) {
	res := newResult()
	r := &jobRunner{
		list:   jobList(cfg.seed),
		fleet:  fleetMix,
		cl:     newClient(),
		expect: newExpectations(cfg.seed),
		hs:     startHeapSampler(jobHeapPoll),
		res:    res,
	}
	defer r.hs.stop()
	if fleetMix {
		// A reference round on one daemon: the fleet's results must be
		// byte-identical to it, whatever the seed.
		if _, err := r.round(false); err != nil {
			return nil, err
		}
	}
	if _, err := r.round(fleetMix); err != nil { // warm-up, not measured
		return nil, err
	}
	if !cfg.trace {
		rds, err := r.rounds(cfg.seconds)
		if err != nil {
			return nil, err
		}
		jobsEndToEnd(res, rds)
		return res, nil
	}
	plain, err := r.rounds(cfg.seconds / 2)
	if err != nil {
		return nil, err
	}
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	r.cl.detail, r.cl.spans = true, cfg.spans
	before := corestats.Default.Snapshot()
	traced, err := r.rounds(cfg.seconds / 2)
	after := corestats.Default.Snapshot()
	name := "spsd_mix"
	if fleetMix {
		name = "fleet_mix"
	}
	samples, perr := prof.stop(name)
	if err != nil {
		return nil, err
	}
	if perr != nil {
		return nil, perr
	}
	jobsPerLayer(res, fleetMix, plain, traced, samples, before, after)
	return res, nil
}

func jobsEndToEnd(res *result, rds []round) {
	var lat, setups, heap []float64
	byKind := map[string][]float64{}
	var wall time.Duration
	var pkts int64
	var mem memSnap
	n := 0
	for _, rd := range rds {
		setups = append(setups, rd.setup.Seconds())
		heap = append(heap, rd.peakMB)
		wall += rd.wall
		mem = mem.add(rd.mem)
		for _, rec := range rd.records {
			lat = append(lat, ms(rec.latency))
			byKind[rec.kind] = append(byKind[rec.kind], ms(rec.latency))
			pkts += rec.pkts
			n++
		}
	}
	for _, m := range jobMix {
		l := byKind[m.kind]
		res.info = append(res.info, fmt.Sprintf("%-11s %4.1f%% of jobs, latency p50 %8.3f ms, p95 %8.3f ms", m.kind,
			100*float64(len(l))/float64(n), quantile(l, 0.5), quantile(l, 0.95)))
	}
	res.values["setup_s"] = median(setups)
	res.values["pkts_per_s"] = float64(pkts) / wall.Seconds()
	res.values["allocs_per_pkt"] = float64(mem.allocs) / float64(pkts)
	res.values["peak_heap_mb"] = median(heap)
	res.values["job_p50_ms"] = quantile(lat, 0.5)
	res.values["job_p95_ms"] = quantile(lat, 0.95)
	res.values["jobs_per_s"] = float64(n) / wall.Seconds()
	for _, k := range []string{"setup_s", "peak_heap_mb"} {
		res.samples[k] = len(rds)
	}
	res.samples["job_p50_ms"] = n
	res.samples["job_p95_ms"] = n
	res.samples["jobs_per_s"] = n
	res.notes["setup_s"] = "one fresh target per round of the job list"
	// Neither is a per-packet cost of the simulator here: 8 of the 60
	// jobs are sims, and the allocations are the whole process's.
	res.notes["pkts_per_s"] = "the sim jobs' delivered packets per second of the whole loop"
	res.notes["allocs_per_pkt"] = "every allocation in the process (job path, campaigns, client) per sim-job packet"
	res.notes["peak_heap_mb"] = "per round"
}

func jobsPerLayer(res *result, fleetMix bool, plain, traced []round, samples []cpuSample, before, after corestats.Snapshot) {
	for _, d := range perLayer {
		res.values[d.name] = 0
	}
	shares, nextCum, profNs := profileShares(samples, muxNext)
	for l, v := range shares {
		res.values[l+".cpu_share"] = v
	}
	res.values["traffic.share"] = ratio(uint64(nextCum), uint64(profNs))
	res.notes["traffic.share"] = "share of profile CPU time under Mux.Next"
	for _, k := range []string{"traffic.next_calls", "traffic.next_ns", "sim.events_per_pkt", "hbmswitch.self_ns_per_pkt",
		"hbmswitch.drain_share", "hbmswitch.sim_bypass_ratio", "hbmswitch.sim_hbm_util", "hbmswitch.sim_p99_latency_ns"} {
		res.notes[k] = "not measured: the job path runs its switches out of the client's reach"
	}
	var submit, queue, path, fetch []float64
	runByKind := map[string][]float64{}
	var resultBytes, traceBytes, traces, units, n int
	var pw, tw time.Duration
	var pm memSnap
	pj := 0
	for _, rd := range plain {
		pw += rd.wall
		pm = pm.add(rd.mem)
		pj += len(rd.records)
	}
	var retries, dups int
	var ewma, skew []float64
	for _, rd := range traced {
		tw += rd.wall
		for _, rec := range rd.records {
			n++
			submit = append(submit, ms(rec.submit))
			resultBytes += rec.resultLen
			units += rec.units
			if rec.run > 0 {
				queue = append(queue, ms(rec.queue))
				path = append(path, ms(rec.latency-rec.run))
				runByKind[rec.kind] = append(runByKind[rec.kind], ms(rec.run))
			}
			if rec.traceLen > 0 {
				traces++
				traceBytes += rec.traceLen
				fetch = append(fetch, ms(rec.traceFetch))
			}
		}
		if rd.info != nil {
			retries += rd.info.UnitRetries
			dups += rd.info.DuplicateUnits
			var picks []float64
			var sum float64
			for _, b := range rd.info.Backends {
				ewma = append(ewma, b.LatencyEWMASeconds*1e3)
				picks = append(picks, float64(b.Picks))
				sum += float64(b.Picks)
			}
			if sum > 0 {
				skew = append(skew, quantile(picks, 1)/(sum/float64(len(picks))))
			}
		}
	}
	res.values["serve.submit_ms"] = median(submit)
	res.samples["serve.submit_ms"] = len(submit)
	res.values["serve.result_bytes"] = float64(resultBytes) / float64(n)
	if len(queue) > 0 {
		res.values["serve.queue_wait_ms"] = median(queue)
		res.values["serve.path_ms"] = median(path)
		res.samples["serve.path_ms"] = len(path)
		for _, k := range jobKindNames {
			res.values["serve.run_ms."+k] = median(runByKind[k])
			res.samples["serve.run_ms."+k] = len(runByKind[k])
		}
		res.notes["serve.path_ms"] = "client latency minus the daemon's run time"
	} else {
		res.notes["serve.queue_wait_ms"] = "not measured: the coordinator has no JobDetail stamps"
		res.notes["serve.path_ms"] = "not measured: the coordinator has no JobDetail stamps"
		for _, k := range jobKindNames {
			res.notes["serve.run_ms."+k] = "not measured: the coordinator has no JobDetail stamps"
		}
	}
	if traces > 0 {
		res.values["telemetry.trace_bytes"] = float64(traceBytes) / float64(traces)
		res.values["telemetry.trace_fetch_ms"] = median(fetch)
		res.samples["telemetry.trace_fetch_ms"] = len(fetch)
	}
	if len(ewma) > 0 {
		res.values["fleet.units_per_job"] = float64(units) / float64(n)
		res.values["fleet.unit_retries"] = float64(retries)
		res.values["fleet.duplicate_units"] = float64(dups)
		res.values["fleet.unit_latency_ewma_ms"] = median(ewma)
		res.values["fleet.pick_skew"] = median(skew)
		res.notes["fleet.pick_skew"] = "busiest backend's picks over the mean, per round"
	}
	events := after.Events - before.Events
	res.values["sim.cascade_events_per_event"] = ratio(after.CascadeEvents-before.CascadeEvents, events)
	res.values["packet.packet_pool_hit_ratio"] = ratio(after.PacketPool.Hits-before.PacketPool.Hits, after.PacketPool.Gets-before.PacketPool.Gets)
	res.values["packet.batch_pool_hit_ratio"] = ratio(after.BatchPool.Hits-before.BatchPool.Hits, after.BatchPool.Gets-before.BatchPool.Gets)
	res.values["packet.frame_pool_hit_ratio"] = ratio(after.FramePool.Hits-before.FramePool.Hits, after.FramePool.Gets-before.FramePool.Gets)
	res.values["runtime.gc_cycles_per_op"] = float64(pm.gcCycles) / float64(pj)
	res.values["runtime.gc_cpu_share"] = pm.gcCPU / pm.busyCPU
	res.values["trace.overhead_ratio"] = (tw.Seconds() / float64(n)) / (pw.Seconds() / float64(pj))
	res.notes["runtime.gc_cpu_share"] = "GC CPU time over CPU time used, untraced rounds"
	res.notes["trace.overhead_ratio"] = "traced wall time per job over untraced"
	if !fleetMix {
		res.notes["trace.overhead_ratio"] += "; traced rounds also fetch JobDetail"
	}
}
