package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"pbrouter/internal/corestats"
	"pbrouter/internal/hbmswitch"
	"pbrouter/internal/packet"
	"pbrouter/internal/sim"
	"pbrouter/internal/sps"
	"pbrouter/internal/traffic"
)

const (
	simHorizon = 40 * sim.Microsecond
	simEpochs  = 40 // one per simulated microsecond
	// simWorkers is RunSharded's worker count: the two CPUs the
	// benchmark's numbers were sized on, whatever the host has.
	simWorkers = 2
	// spsFlowsPerRibbon and spsLoad are E5 -full's scenario.
	spsFlowsPerRibbon = 20000
	spsLoad           = 0.95
	// minOps is the fewest measured operations a phase runs, however
	// short --seconds is.
	minOps = 3
	// setupReps is how many builds a set-up times: switch64's build
	// takes well under a millisecond, so one per run would make
	// setup_s a handful of noisy samples.
	setupReps = 9
)

// simOut is what one simulation run produced and cost.
type simOut struct {
	wall, finish time.Duration
	epochs       []time.Duration // per-epoch host time (sps_full: from the second epoch on)
	prep         time.Duration   // sps_full: switch build and start plus the first epoch
	reports      []*hbmswitch.Report
	pkts         int64 // delivered packets
	digest       string
	problems     []string

	sched                sim.SchedStats
	packet, batch, frame packet.PoolStats
	barrierNs            uint64

	nextCalls, nextNs int64 // through the timed stream (switch64, traced)
	mem               memSnap
	peakMB            float64
}

// simRunner runs one operation; a non-nil spans log means traced.
type simRunner func(op int, spans *spanLog) (simOut, error)

// simWorkload is a simulator workload: setup builds what a run needs
// (per operation when everyOp, since a switch runs once), and the
// returned runner simulates it.
type simWorkload struct {
	name    string
	everyOp bool
	setup   func(seed uint64) (simRunner, error)
}

func runSwitch64(cfg runConfig) (*result, error) {
	return runSim(cfg, simWorkload{name: "switch64", everyOp: true, setup: setupSwitch64})
}

func runSPSFull(cfg runConfig) (*result, error) {
	return runSim(cfg, simWorkload{name: "sps_full", setup: setupSPSFull})
}

// setupSwitch64 builds the reference HBM switch (speedup 1.1) fed
// uniform 0.9 Poisson load of fixed 64-byte packets, with no observer
// and no telemetry.
func setupSwitch64(seed uint64) (simRunner, error) {
	cfg := hbmswitch.Reference()
	cfg.Speedup = 1.1
	sw, err := hbmswitch.New(cfg)
	if err != nil {
		return nil, err
	}
	m := traffic.Uniform(cfg.PFI.N, 0.9)
	mux := traffic.NewMux(traffic.UniformSources(m, cfg.PortRate, traffic.Poisson, traffic.Fixed(64), sim.NewRNG(seed)))
	return func(op int, spans *spanLog) (simOut, error) {
		var out simOut
		var stream traffic.Stream = mux
		var timed *timedStream
		if spans != nil {
			timed = &timedStream{mux: mux}
			stream = timed
		}
		start := time.Now()
		runSpan := spans.open("switch64.run", op, 0, start)
		sw.Start(stream, simHorizon)
		t := time.Now()
		spans.add("hbmswitch.Start", op, runSpan, start, t)
		for e := 1; e <= simEpochs; e++ {
			sw.AdvanceTo(sim.Time(e) * simHorizon / simEpochs)
			now := time.Now()
			out.epochs = append(out.epochs, now.Sub(t))
			spans.add("hbmswitch.AdvanceTo", op, runSpan, t, now)
			t = now
		}
		rep, err := sw.Finish()
		end := time.Now()
		spans.add("hbmswitch.Finish", op, runSpan, t, end)
		spans.close(runSpan, end)
		out.wall, out.finish = end.Sub(start), end.Sub(t)
		if err != nil {
			return out, err
		}
		out.reports = []*hbmswitch.Report{rep}
		cs := sw.CoreStats()
		out.sched, out.packet, out.batch, out.frame = cs.Sched, cs.Packet, cs.Batch, cs.Frame
		if timed != nil {
			out.nextCalls, out.nextNs = timed.calls, timed.ns
			// The switch pulls one packet past the horizon and stops.
			if want := rep.OfferedPackets + 1; timed.calls != want {
				out.problems = append(out.problems, fmt.Sprintf("stream saw %d Next calls, report offered %d packets", timed.calls, rep.OfferedPackets))
			}
		}
		return out, nil
	}, nil
}

// timedStream times the switch's arrival stream: it counts every
// Next and times one call in nextSample, less the cost of reading the
// clock, so the wrapper adds a few percent rather than doubling the
// cost of a call. It forwards Recycle and PoolStats, which
// hbmswitch.Start type-asserts: without them the switch would stop
// pooling packets and the traced run would measure a different
// program.
type timedStream struct {
	mux       *traffic.Mux
	calls, ns int64
}

const nextSample = 16

func (t *timedStream) Next() (*packet.Packet, sim.Time) {
	t.calls++
	if t.calls%nextSample != 0 {
		return t.mux.Next()
	}
	t0 := time.Now()
	p, at := t.mux.Next()
	t.ns += (int64(time.Since(t0)) - clockCost) * nextSample
	return p, at
}

// clockCost is the time an empty time.Now/time.Since pair measures.
var clockCost = func() int64 {
	const n = 1 << 14
	var sum int64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		sum += int64(time.Since(t0))
	}
	return sum / n
}()

func (t *timedStream) Recycle(p *packet.Packet)    { t.mux.Recycle(p) }
func (t *timedStream) PoolStats() packet.PoolStats { return t.mux.PoolStats() }

// setupSPSFull builds E5 -full's scenario: the full 16x16 reference
// SPS router of 16 HBM switches (speedup 1.1) under 20000 ECMP flows
// per ribbon at 0.95 load. Each run is IMIX Poisson through
// RunSharded with one epoch per simulated microsecond.
func setupSPSFull(seed uint64) (simRunner, error) {
	cfg := sps.Reference()
	dep, err := sps.NewDeployment(cfg)
	if err != nil {
		return nil, err
	}
	swCfg := hbmswitch.Reference()
	swCfg.Speedup = 1.1
	rt, err := sps.NewRouter(dep, swCfg)
	if err != nil {
		return nil, err
	}
	flows := sps.ECMPUniform(cfg, spsFlowsPerRibbon, spsLoad, seed+41)
	return func(op int, spans *spanLog) (simOut, error) {
		var out simOut
		before := corestats.Default.Snapshot()
		start := time.Now()
		runSpan := spans.open("sps.RunSharded", op, 0, start)
		last := start
		// RunSharded builds and starts its 16 switches and their
		// streams inside the call, before the first epoch. The first
		// progress interval holds that work, so it is kept apart from
		// the epoch samples.
		progress := func(e, total int) {
			now := time.Now()
			if e == 1 {
				out.prep = now.Sub(last)
				spans.add("sps.prep_and_epoch1", op, runSpan, last, now)
			} else {
				out.epochs = append(out.epochs, now.Sub(last))
				spans.add("sps.epoch", op, runSpan, last, now)
			}
			last = now
		}
		rep, _, err := rt.RunSharded(flows, traffic.Poisson, traffic.IMIX(), simHorizon, seed,
			simWorkers, simEpochs, sps.Instrumentation{}, progress)
		end := time.Now()
		spans.add("sps.finish", op, runSpan, last, end)
		spans.close(runSpan, end)
		out.wall, out.finish = end.Sub(start), end.Sub(last)
		if err != nil {
			return out, err
		}
		out.reports = rep.PerSwitch
		d := corestats.Default.Snapshot()
		out.sched = sim.SchedStats{
			Events:        d.Events - before.Events,
			Cascades:      d.Cascades - before.Cascades,
			CascadeEvents: d.CascadeEvents - before.CascadeEvents,
			Overflowed:    d.Overflowed - before.Overflowed,
		}
		out.packet = poolDelta(d.PacketPool, before.PacketPool)
		out.batch = poolDelta(d.BatchPool, before.BatchPool)
		out.frame = poolDelta(d.FramePool, before.FramePool)
		out.barrierNs = d.BarrierWaitNs - before.BarrierWaitNs
		return out, nil
	}, nil
}

func poolDelta(a, b corestats.PoolSnapshot) packet.PoolStats {
	return packet.PoolStats{Gets: a.Gets - b.Gets, Hits: a.Hits - b.Hits, Grows: a.Grows - b.Grows, Recycles: a.Recycles - b.Recycles}
}

// checkReports applies the output checks every simulation run must
// pass and returns the digest of its reports.
func checkReports(reps []*hbmswitch.Report) (digest string, pkts int64, problems []string) {
	var buf bytes.Buffer
	for i, r := range reps {
		if len(r.Errors) > 0 {
			problems = append(problems, fmt.Sprintf("switch %d: %v", i, r.Errors[0]))
		}
		if r.OfferedPackets != r.DeliveredPackets+r.DroppedPackets || r.OfferedBytes != r.DeliveredBytes+r.DroppedBytes {
			problems = append(problems, fmt.Sprintf("switch %d: offered %d pkts/%d B != delivered %d/%d + dropped %d/%d",
				i, r.OfferedPackets, r.OfferedBytes, r.DeliveredPackets, r.DeliveredBytes, r.DroppedPackets, r.DroppedBytes))
		}
		if err := r.WriteJSON(&buf); err != nil {
			problems = append(problems, err.Error())
		}
		pkts += r.DeliveredPackets
	}
	if pkts == 0 {
		problems = append(problems, "no packets delivered")
	}
	return shortDigest(buf.Bytes()), pkts, problems
}

// runSim drives a simulator workload: set-up, one discarded warm-up
// run, then measured runs for the configured time (untraced and then
// traced halves with -trace 1), each after a full GC.
func runSim(cfg runConfig, w simWorkload) (*result, error) {
	res := newResult()
	var setups []float64
	var run simRunner
	// setup builds reps times, each from a collected heap, and keeps
	// the last build; setup_s is the median of every build timed.
	setup := func(reps int) error {
		for i := 0; i < reps; i++ {
			runtime.GC()
			t0 := time.Now()
			r, err := w.setup(cfg.seed)
			setups = append(setups, time.Since(t0).Seconds())
			if err != nil {
				return err
			}
			run = r
		}
		return nil
	}
	if !w.everyOp {
		if err := setup(setupReps); err != nil {
			return nil, err
		}
	}
	hs := startHeapSampler(simHeapPoll)
	defer hs.stop()

	// Every run of a seed, traced or not, must produce the same report.
	expect := newExpectations(cfg.seed)
	ops := 0
	one := func(spans *spanLog) (simOut, error) {
		if w.everyOp {
			if err := setup(setupReps); err != nil {
				return simOut{}, err
			}
		}
		runtime.GC() // each run starts from the same heap; its peak and GC counts are its own
		hs.take()
		before := readMem()
		ops++
		out, err := run(ops, spans)
		out.mem = readMem().sub(before)
		out.peakMB = hs.take()
		if err != nil {
			return out, fmt.Errorf("run %d: %w", ops, err)
		}
		var probs []string
		out.digest, out.pkts, probs = checkReports(out.reports)
		out.problems = append(out.problems, probs...)
		if p := expect.check(w.name, out.digest); p != "" {
			out.problems = append(out.problems, p)
		}
		res.op(out.problems)
		return out, nil
	}
	phase := func(d time.Duration, spans *spanLog) ([]simOut, error) {
		var outs []simOut
		start := time.Now()
		for len(outs) < minOps || time.Since(start) < d {
			out, err := one(spans)
			if err != nil {
				return nil, err
			}
			outs = append(outs, out)
		}
		return outs, nil
	}
	if _, err := one(nil); err != nil { // warm-up, not measured
		return nil, err
	}
	if w.everyOp {
		setups = nil // the warm-up's builds are not measured either
	}
	if !cfg.trace {
		outs, err := phase(cfg.seconds, nil)
		if err != nil {
			return nil, err
		}
		res.values["setup_s"] = median(setups)
		res.samples["setup_s"] = len(setups)
		simEndToEnd(res, outs)
		return res, nil
	}
	plain, err := phase(cfg.seconds/2, nil)
	if err != nil {
		return nil, err
	}
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	traced, err := phase(cfg.seconds/2, cfg.spans)
	samples, perr := prof.stop(w.name)
	if err != nil {
		return nil, err
	}
	if perr != nil {
		return nil, perr
	}
	simPerLayer(res, w.name, plain, traced, samples)
	return res, nil
}

func simEndToEnd(res *result, outs []simOut) {
	var pps, app, heap, sups []float64
	var epochMs, prepMs []float64
	for _, o := range outs {
		if o.prep > 0 {
			prepMs = append(prepMs, ms(o.prep))
		}
		pps = append(pps, float64(o.pkts)/o.wall.Seconds())
		app = append(app, float64(o.mem.allocs)/float64(o.pkts))
		heap = append(heap, o.peakMB)
		sups = append(sups, float64(simEpochs)/o.wall.Seconds())
		for _, e := range o.epochs {
			epochMs = append(epochMs, ms(e))
		}
	}
	res.values["pkts_per_s"] = median(pps)
	res.values["allocs_per_pkt"] = median(app)
	res.values["peak_heap_mb"] = median(heap)
	res.values["jobs_per_s"] = median(sups)
	res.values["job_p50_ms"] = quantile(epochMs, 0.5)
	res.values["job_p95_ms"] = quantile(epochMs, 0.95)
	for _, k := range []string{"pkts_per_s", "allocs_per_pkt", "peak_heap_mb", "jobs_per_s"} {
		res.samples[k] = len(outs)
	}
	res.samples["job_p50_ms"] = len(epochMs)
	res.samples["job_p95_ms"] = len(epochMs)
	res.notes["job_p50_ms"] = "one job = one simulated-us epoch step"
	res.notes["jobs_per_s"] = "simulated us per host second"
	if len(prepMs) > 0 {
		res.notes["job_p50_ms"] += "; the first, which holds RunSharded's switch build, is left out"
		res.info = append(res.info, fmt.Sprintf("RunSharded switch build and start plus the first epoch: median %.1f ms (not in job_*)", median(prepMs)))
	}
}

func simPerLayer(res *result, name string, plain, traced []simOut, samples []cpuSample) {
	for _, d := range perLayer {
		res.values[d.name] = 0
	}
	shares, nextCum, profNs := profileShares(samples, muxNext)
	for l, v := range shares {
		res.values[l+".cpu_share"] = v
	}
	var wall, finish, nextNs, calls, pkts int64
	var sched sim.SchedStats
	var pk, bt, fr packet.PoolStats
	var barrier uint64
	var lockstep time.Duration
	var epochMs []float64
	for _, o := range traced {
		wall += int64(o.wall)
		finish += int64(o.finish)
		nextNs += o.nextNs
		pkts += o.pkts
		sched.Events += o.sched.Events
		sched.CascadeEvents += o.sched.CascadeEvents
		pk.Add(o.packet)
		bt.Add(o.batch)
		fr.Add(o.frame)
		barrier += o.barrierNs
		lockstep += o.prep
		for _, e := range o.epochs {
			lockstep += e
			epochMs = append(epochMs, ms(e))
		}
		if o.nextCalls > 0 {
			calls += o.nextCalls
		} else {
			// RunSharded builds its streams inside; each switch pulls
			// one packet per offered packet plus one past the horizon.
			for _, r := range o.reports {
				calls += r.OfferedPackets + 1
			}
		}
	}
	n := float64(len(traced))
	res.values["traffic.next_calls"] = float64(calls) / n
	res.values["sim.events_per_pkt"] = float64(sched.Events) / float64(pkts)
	res.values["sim.cascade_events_per_event"] = float64(sched.CascadeEvents) / float64(sched.Events)
	res.values["packet.packet_pool_hit_ratio"] = ratio(pk.Hits, pk.Gets)
	res.values["packet.batch_pool_hit_ratio"] = ratio(bt.Hits, bt.Gets)
	res.values["packet.frame_pool_hit_ratio"] = ratio(fr.Hits, fr.Gets)
	res.values["hbmswitch.drain_share"] = float64(finish) / float64(wall)
	if name == "switch64" {
		res.values["traffic.next_ns"] = float64(nextNs) / float64(calls)
		res.values["traffic.share"] = float64(nextNs) / float64(wall)
		res.values["hbmswitch.self_ns_per_pkt"] = float64(wall-nextNs) / float64(pkts)
		res.notes["hbmswitch.self_ns_per_pkt"] = "run wall time minus time in Next, per delivered packet"
	} else {
		res.values["traffic.next_ns"] = float64(nextCum) / float64(calls)
		res.values["traffic.share"] = float64(nextCum) / float64(profNs)
		res.values["hbmswitch.self_ns_per_pkt"] = float64(profNs-nextCum) / float64(pkts)
		res.notes["traffic.next_calls"] = "from the reports: offered packets plus one per switch"
		res.notes["traffic.next_ns"] = "CPU profile time under Mux.Next, per call: RunSharded builds its streams inside"
		res.notes["traffic.share"] = "share of profile CPU time under Mux.Next"
		res.notes["hbmswitch.self_ns_per_pkt"] = "profile CPU time outside Mux.Next, per delivered packet"
		res.values["sps.epoch_ms"] = quantile(epochMs, 0.5)
		res.samples["sps.epoch_ms"] = len(epochMs)
		res.notes["sps.epoch_ms"] = "from the second epoch on: the first holds the switch build"
		res.values["sps.barrier_wait_share"] = float64(barrier) / (float64(lockstep) * float64(len(traced[0].reports)))
		res.notes["sps.barrier_wait_share"] = fmt.Sprintf("summed shard wait over shard-epoch time, the first epoch's with the switch build in it; %d shards on %d workers, so it counts queueing, not idle cores", len(traced[0].reports), simWorkers)
		res.values["sps.finish_share"] = float64(finish) / float64(wall)
	}
	// The model's own outputs: identical on every run of a seed.
	var bypassed, read int64
	var util float64
	var p99 sim.Time
	last := traced[len(traced)-1].reports
	for _, r := range last {
		bypassed += r.FramesBypassed
		read += r.FramesRead
		util += r.HBMUtilization
		if r.LatencyP99 > p99 {
			p99 = r.LatencyP99
		}
	}
	res.values["hbmswitch.sim_bypass_ratio"] = ratio(uint64(bypassed), uint64(bypassed+read))
	res.values["hbmswitch.sim_hbm_util"] = util / float64(len(last))
	res.values["hbmswitch.sim_p99_latency_ns"] = float64(p99) / float64(sim.Nanosecond)

	var pm memSnap
	var pw, tw []float64
	for _, o := range plain {
		pm = pm.add(o.mem)
		pw = append(pw, o.wall.Seconds())
	}
	for _, o := range traced {
		tw = append(tw, o.wall.Seconds())
	}
	res.values["runtime.gc_cycles_per_op"] = float64(pm.gcCycles) / float64(len(plain))
	res.values["runtime.gc_cpu_share"] = pm.gcCPU / pm.busyCPU
	res.values["trace.overhead_ratio"] = median(tw) / median(pw)
	res.notes["runtime.gc_cpu_share"] = "GC CPU time over CPU time used, untraced runs"
	res.notes["trace.overhead_ratio"] = "median traced run wall time over untraced"
}

// muxNext is the arrival stream's Next as the CPU profile names it.
const muxNext = "pbrouter/internal/traffic.(*Mux).Next"

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
