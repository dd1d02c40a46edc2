// Command trafficgen generates repeatable workload traces for the
// switch simulators and inspects existing ones.
//
// Generate:
//
//	trafficgen -out core.trace -ports 16 -load 0.9 -matrix uniform \
//	           -sizes imix -arrival bursty -horizon 100us -seed 7
//
// Realistic workloads (flow-level generators from internal/workload):
//
//	trafficgen -out ht.trace -workload heavytail -tail 1.2
//	trafficgen -out burst.trace -workload onoff -burst-ratio 8
//	trafficgen -out day.trace -workload diurnal
//
// Rescale a recorded trace to another load (the replay workload reads
// a trace this tool wrote; -replay-scale 0 rescales to -load):
//
//	trafficgen -out re.trace -load 0.5 -workload replay -replay day.trace
//
// Inspect:
//
//	trafficgen -stats core.trace
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"pbrouter/internal/cli"
	"pbrouter/internal/sim"
	"pbrouter/internal/traffic"
	"pbrouter/internal/workload"
)

func main() {
	var (
		out      = flag.String("out", "", "trace file to write")
		stats    = flag.String("stats", "", "trace file to inspect")
		ports    = flag.Int("ports", 16, "switch port count N")
		rate     = flag.Float64("rate", 2560, "port line rate in Gb/s")
		load     = flag.Float64("load", 0.9, "offered load per input")
		matrix   = flag.String("matrix", "uniform", "uniform|diagonal|hotspot|incast|failover")
		sizes    = flag.String("sizes", "imix", "imix|64|1500|uniform")
		arrival  = flag.String("arrival", "poisson", "poisson|bursty (classic workload only)")
		wl       = flag.String("workload", "uniform", "uniform|heavytail|onoff|diurnal|replay")
		flowDist = flag.String("flow-dist", "", "heavytail flow-size distribution: pareto|lognormal")
		tail     = flag.Float64("tail", 0, "heavytail Pareto tail index in (1,5] (0 = default)")
		burst    = flag.Float64("burst-ratio", 0, "onoff peak/mean load ratio >= 1 (0 = default)")
		replay   = flag.String("replay", "", "trace to replay (with -workload replay)")
		reScale  = flag.Float64("replay-scale", 0, "replay time-compression (0 = rescale to -load, 1 = as recorded)")
		horizon  = flag.String("horizon", "100us", "trace duration")
		seed     = flag.Uint64("seed", 1, "random seed")
	)
	flag.Parse()

	wf := cli.WorkloadFlags{
		Kind: *wl, FlowDist: *flowDist, TailAlpha: *tail,
		BurstRatio: *burst, ReplayPath: *replay, ReplayScale: *reScale,
	}
	cli.Check(cli.ValidateCount("-ports", *ports), wf.Validate())

	switch {
	case *stats != "":
		if err := inspect(*stats); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case *out != "":
		if err := generate(*out, *ports, *rate, *load, *matrix, *sizes, *arrival, *horizon, *seed, wf); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "need -out (generate) or -stats (inspect); see -h")
		os.Exit(2)
	}
}

func generate(path string, ports int, rateGbps, load float64, matrix, sizes, arrival, horizon string,
	seed uint64, wf cli.WorkloadFlags) error {
	hz, err := cli.Duration("-horizon", horizon)
	if err != nil {
		return err
	}
	m, err := cli.Matrix(matrix, ports, load)
	if err != nil {
		return err
	}
	dist, err := cli.Sizes(sizes)
	if err != nil {
		return err
	}
	lineRate := sim.Rate(rateGbps) * sim.Gbps
	var stream traffic.Stream
	if wf.Kind == workload.KindUniform {
		// The classic path keeps the -arrival knob (the flow-level
		// generators define their own arrival structure).
		kind, err := cli.Arrival(arrival)
		if err != nil {
			return err
		}
		stream = traffic.NewMux(traffic.UniformSources(m, lineRate, kind, dist, sim.NewRNG(seed)))
	} else {
		wcfg := wf.Config()
		wcfg.Sizes = dist
		if stream, err = workload.New(wcfg, m, lineRate, sim.NewRNG(seed)); err != nil {
			return err
		}
		if ts, ok := stream.(*traffic.TraceStream); ok {
			defer ts.Close()
		}
	}

	if out, err := os.Stat(path); err == nil && wf.ReplayPath != "" {
		if in, err := os.Stat(wf.ReplayPath); err == nil && os.SameFile(in, out) {
			return fmt.Errorf("-out %s would truncate the trace it replays", path)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tw, err := traffic.NewTraceWriter(f, ports)
	if err != nil {
		return err
	}
	for {
		p, at := stream.Next()
		if p == nil || at > hz {
			break
		}
		if err := tw.Add(p); err != nil {
			return err
		}
	}
	n, err := tw.Finish()
	if err != nil {
		return err
	}
	fmt.Printf("wrote %d packets over %v to %s\n", n, hz, path)
	return nil
}

func inspect(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := traffic.ScanTrace(f)
	if err != nil {
		return err
	}
	fmt.Printf("packets: %d (%.2f MB), span %v, sizes %d..%d B\n",
		st.Packets, float64(st.Bytes)/1e6, st.Duration(), st.MinSize, st.MaxSize)
	fmt.Printf("busiest input mean rate: %v\n", st.MeanRatePerInput())
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "port\tin bytes\tout bytes")
	for i := range st.PerInput {
		fmt.Fprintf(w, "%d\t%d\t%d\n", i, st.PerInput[i], st.PerOutput[i])
	}
	return w.Flush()
}
