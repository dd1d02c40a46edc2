// Command spsload load-tests a running spsd daemon: K concurrent
// clients submit a mix of quick jobs across the job kinds, poll them
// to completion, and report submit-to-complete latency percentiles.
//
// Examples:
//
//	spsload -addr localhost:9090 -clients 32 -jobs 128
//	spsload -addr localhost:9090 -kinds sim,validate -clients 8
//
// Any HTTP error, rejected submission, or job that ends in a state
// other than done counts as an error, and any error makes spsload
// exit nonzero.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pbrouter/internal/arch"
	"pbrouter/internal/cli"
	"pbrouter/internal/fleet"
	"pbrouter/internal/resilience"
	"pbrouter/internal/serve"
	"pbrouter/internal/sim"
	"pbrouter/internal/splitpolicy"
	"pbrouter/internal/stats"
	"pbrouter/internal/workload"
)

func main() {
	var (
		addr     = flag.String("addr", "localhost:9090", "daemon address (host:port)")
		clients  = flag.Int("clients", 8, "concurrent clients")
		jobs     = flag.Int("jobs", 32, "total jobs to submit")
		seed     = flag.Uint64("seed", 1, "base seed; job i runs with seed+i")
		kinds    = flag.String("kinds", "sim,sweep,validate,resilience", "comma-separated job kinds to mix")
		poll     = flag.Duration("poll", 50*time.Millisecond, "status poll interval")
		timeout  = flag.Duration("timeout", 2*time.Minute, "per-job completion timeout")
		fleetRpt = flag.Bool("fleet", false, "print the coordinator's /fleet backend report after the run (spsfleet targets only)")
	)
	flag.Parse()
	cli.Check(
		cli.ValidateAddr(*addr),
		cli.ValidateClients(*clients),
		cli.ValidateCount("-jobs", *jobs),
	)
	mix, err := parseKinds(*kinds)
	if err != nil {
		cli.Exit(cli.Outcome{UsageErr: err})
	}

	base := "http://" + *addr
	var (
		next      atomic.Int64
		errs      atomic.Int64
		mu        sync.Mutex
		latencies []float64
		byKind    = map[serve.Kind]int{}
		wg        sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 30 * time.Second}
			for {
				i := int(next.Add(1)) - 1
				if i >= *jobs {
					return
				}
				kind := mix[i%len(mix)]
				spec := quickSpec(kind, *seed+uint64(i))
				d, err := runOne(client, base, spec, *poll, *timeout)
				if err != nil {
					fmt.Fprintf(os.Stderr, "job %d (%s): %v\n", i, kind, err)
					errs.Add(1)
					continue
				}
				mu.Lock()
				latencies = append(latencies, d.Seconds())
				byKind[kind]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	q := stats.Quantiles(latencies, 0.50, 0.95, 0.99)
	fmt.Printf("spsload: %d jobs, %d clients, %d errors in %v (%.1f jobs/s)\n",
		*jobs, *clients, errs.Load(), wall.Round(time.Millisecond), float64(*jobs)/wall.Seconds())
	for _, k := range mix {
		fmt.Printf("  %-10s %d ok\n", k, byKind[k])
	}
	if len(latencies) > 0 {
		fmt.Printf("submit-to-complete latency: p50 %.3fs  p95 %.3fs  p99 %.3fs\n", q[0], q[1], q[2])
	}
	if *fleetRpt {
		if err := printFleetReport(base); err != nil {
			fmt.Fprintf(os.Stderr, "fleet report: %v\n", err)
			errs.Add(1)
		}
	}
	cli.Exit(cli.Outcome{Violations: int(errs.Load())})
}

// printFleetReport fetches and prints the coordinator's /fleet
// backend report — dispatch counts, health, and latency per backend.
func printFleetReport(base string) error {
	resp, err := http.Get(base + "/fleet")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	var info fleet.Info
	if err := json.Unmarshal(b, &info); err != nil {
		return err
	}
	fmt.Printf("fleet: scheduler %s, %d retries, %d duplicate units\n",
		info.Scheduler, info.UnitRetries, info.DuplicateUnits)
	for _, be := range info.Backends {
		state := "up"
		if !be.Alive {
			state = "down"
		}
		fmt.Printf("  %-28s %-4s picks %-5d ok %-5d err %-4d ewma %.3fs\n",
			be.URL, state, be.Picks, be.UnitsOK, be.UnitsErr, be.LatencyEWMASeconds)
	}
	return nil
}

// parseKinds parses the -kinds mix.
func parseKinds(s string) ([]serve.Kind, error) {
	var mix []serve.Kind
	for _, part := range strings.Split(s, ",") {
		k := serve.Kind(strings.TrimSpace(part))
		if !slices.Contains(serve.Kinds(), k) {
			return nil, fmt.Errorf("-kinds: unknown job kind %q", part)
		}
		mix = append(mix, k)
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("-kinds: need at least one job kind")
	}
	return mix, nil
}

// quickSpec builds a small deterministic job of the given kind — load
// generation should stress the daemon, not the simulator.
func quickSpec(kind serve.Kind, seed uint64) serve.Spec {
	switch kind {
	case serve.KindSim:
		return serve.Spec{Kind: kind, Sim: &serve.SimSpec{
			Load: 0.6, HorizonPs: 2 * sim.Microsecond, Seed: seed,
		}}
	case serve.KindSweep:
		return serve.Spec{Kind: kind, Sweep: &serve.SweepSpec{
			Experiment: "E1", Quick: true, Seed: seed,
		}}
	case serve.KindValidate:
		return serve.Spec{Kind: kind, Validate: &serve.ValidateSpec{
			Seed: seed, Cases: 3, HorizonUs: 2,
		}}
	case serve.KindSplit:
		return serve.Spec{Kind: kind, Split: &splitpolicy.SweepConfig{
			Policies:  []string{splitpolicy.PolicyStatic, splitpolicy.PolicyP2C},
			Workloads: []string{splitpolicy.WorkloadElephants},
			HorizonPs: 8 * sim.Microsecond, Seed: seed,
		}}
	case serve.KindArch:
		return serve.Spec{Kind: kind, Arch: &arch.SweepConfig{
			Archs: []string{arch.ArchOQ, arch.ArchCQ}, Workloads: []string{workload.KindUniform},
			N: 4, HorizonPs: 4 * sim.Microsecond, Seed: seed,
		}}
	default:
		return serve.Spec{Kind: serve.KindResilience, Resilience: &resilience.SweepConfig{
			Mode: resilience.ModeFailedSwitches, MaxFailed: 1,
			HorizonPs: 5 * sim.Microsecond, Seed: seed,
		}}
	}
}

// runOne submits one job and polls it to completion, returning the
// submit-to-complete latency.
func runOne(client *http.Client, base string, spec serve.Spec, poll, timeout time.Duration) (time.Duration, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	resp, err := client.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	st, err := decodeStatus(resp)
	if err != nil {
		return 0, err
	}
	deadline := start.Add(timeout)
	for !st.State.Terminal() {
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("job %s: timed out in state %s", st.ID, st.State)
		}
		time.Sleep(poll)
		resp, err := client.Get(base + "/jobs/" + st.ID)
		if err != nil {
			return 0, err
		}
		if st, err = decodeStatus(resp); err != nil {
			return 0, err
		}
	}
	if st.State != serve.StateDone {
		return 0, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	return time.Since(start), nil
}

// decodeStatus reads a job status response, surfacing API errors.
func decodeStatus(resp *http.Response) (serve.Status, error) {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return serve.Status{}, err
	}
	if resp.StatusCode >= 300 {
		return serve.Status{}, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	var st serve.Status
	if err := json.Unmarshal(b, &st); err != nil {
		return serve.Status{}, err
	}
	return st, nil
}
