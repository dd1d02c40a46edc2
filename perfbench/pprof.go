package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
)

// cpuSample is one stack of a CPU profile, leaf first with inlined
// frames expanded, and the CPU time it stands for.
type cpuSample struct {
	stack []string
	ns    int64
}

// traceRule separates the stacks in `go tool pprof -traces` output.
const traceRule = "-----------+"

// parseTraces reads `go tool pprof -traces -unit=ns` output: after a
// header, blocks separated by dashed rules, each a value in ns
// followed on the same line by the leaf function and then one caller
// per line.
func parseTraces(text string) ([]cpuSample, error) {
	var out []cpuSample
	inBlock := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, traceRule) {
			out = append(out, cpuSample{})
			inBlock = true
			continue
		}
		fn := strings.TrimSpace(line)
		if !inBlock || fn == "" {
			continue
		}
		s := &out[len(out)-1]
		if s.stack == nil {
			v, rest, _ := strings.Cut(fn, " ")
			ns, err := strconv.ParseInt(strings.TrimSuffix(v, "ns"), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("pprof -traces: bad value in %q", line)
			}
			s.ns, fn = ns, strings.TrimSpace(rest)
		}
		s.stack = append(s.stack, strings.TrimSuffix(fn, " (inline)"))
	}
	// The output ends with a rule, which opens an empty block.
	if n := len(out); n > 0 && out[n-1].stack == nil {
		out = out[:n-1]
	}
	return out, nil
}

// Layers a profile sample can be charged to. Each pbrouter module
// named here gets its own bucket; "bench" is the benchmark itself,
// "nethttp" is net/http transport work with no pbrouter caller
// (connection goroutines of both client and server), "runtime" is
// work with neither (GC workers, the scheduler) and "other" every
// remaining pbrouter module (arch, resilience, splitpolicy, router,
// optics, ...).
var cpuLayers = []string{
	"traffic", "workload", "sim", "hbmswitch", "hbm", "packet", "crossbar", "core",
	"stats", "validate", "baseline", "telemetry", "sps", "parallel", "serve", "fleet",
	"nethttp", "runtime", "bench", "other",
}

// layerOf charges a sample's self time to a layer: the module of the
// innermost pbrouter frame, so standard-library work (allocation,
// encoding/json, net/http writes) counts for the module that asked
// for it.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") {
			return "bench"
		}
		if m, ok := strings.CutPrefix(fn, "pbrouter/"); ok {
			m = strings.TrimPrefix(m, "internal/")
			if i := strings.IndexAny(m, "./"); i >= 0 {
				m = m[:i]
			}
			for _, l := range cpuLayers {
				if l == m {
					return l
				}
			}
			return "other"
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "net/http.") {
			return "nethttp"
		}
	}
	return "runtime"
}

// profileShares returns each layer's share of the profile's CPU time,
// the CPU time spent anywhere under fn (cumulative), and the total.
func profileShares(samples []cpuSample, fn string) (shares map[string]float64, cumNs, totalNs int64) {
	byLayer := map[string]int64{}
	for _, s := range samples {
		totalNs += s.ns
		byLayer[layerOf(s.stack)] += s.ns
		for _, f := range s.stack {
			if f == fn {
				cumNs += s.ns
				break
			}
		}
	}
	shares = map[string]float64{}
	for _, l := range cpuLayers {
		if totalNs > 0 {
			shares[l] = float64(byLayer[l]) / float64(totalNs)
		} else {
			shares[l] = 0
		}
	}
	return shares, cumNs, totalNs
}

// profile is a CPU profile being taken in memory.
type profile struct{ buf bytes.Buffer }

func startProfile() (*profile, error) {
	p := &profile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile, writes it under .bench_build/perfbench, and
// reads its stacks back through `go tool pprof -traces`.
func (p *profile) stop(name string) ([]cpuSample, error) {
	pprof.StopCPUProfile()
	dir := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, name+".cpu.pprof")
	if err := os.WriteFile(path, p.buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	var stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-unit=ns", "-symbolize=none", path)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	return parseTraces(string(out))
}
