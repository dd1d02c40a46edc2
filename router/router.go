// Package router is the public API of the petabit router-in-a-package
// reproduction. It composes the paper's two contributions — the
// Split-Parallel Switch package architecture (§2) and the HBM switch
// with Parallel Frame Interleaving (§3) — behind one configuration
// type, and exposes:
//
//   - capacity, power, area and buffering reports derived from the
//     design parameters (the §4 design analysis);
//   - packet-level simulation of a single HBM switch or of the whole
//     SPS router;
//   - the experiment registry (Experiments, RunExperiment) that
//     regenerates every quantitative claim in the paper.
//
// Everything underneath lives in internal/ packages; this package is
// the supported surface.
package router

import (
	"fmt"
	"io"

	"pbrouter/internal/area"
	"pbrouter/internal/buffer"
	"pbrouter/internal/hbmswitch"
	"pbrouter/internal/power"
	"pbrouter/internal/sim"
	"pbrouter/internal/sps"
	"pbrouter/internal/sram"
	"pbrouter/internal/traffic"
)

// Config is the full router design point: the optical package level
// and the per-HBM-switch level.
type Config struct {
	SPS    sps.Config
	Switch hbmswitch.Config
}

// Reference returns the paper's reference design: a 1.31 Pb/s package
// of 16 HBM switches, each with 4 HBM4 stacks and PFI at k=4 KB,
// K=512 KB.
func Reference() Config {
	return Config{
		SPS:    sps.Reference(),
		Switch: hbmswitch.Reference(),
	}
}

// Validate cross-checks the two levels.
func (c Config) Validate() error {
	if err := c.SPS.Validate(); err != nil {
		return err
	}
	if err := c.Switch.Validate(); err != nil {
		return err
	}
	if c.Switch.PFI.N != c.SPS.N {
		return fmt.Errorf("router: switch has %d ports, SPS has %d ribbons", c.Switch.PFI.N, c.SPS.N)
	}
	if c.Switch.PortRate != c.SPS.PortRate() {
		return fmt.Errorf("router: switch port rate %v != SPS α·W·R %v",
			c.Switch.PortRate, c.SPS.PortRate())
	}
	return nil
}

// Router is a configured instance.
type Router struct {
	Cfg Config
	Dep *sps.Deployment
}

// New validates the configuration and builds the fiber splitter.
func New(cfg Config) (*Router, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dep, err := sps.NewDeployment(cfg.SPS)
	if err != nil {
		return nil, err
	}
	return &Router{Cfg: cfg, Dep: dep}, nil
}

// Capacity summarizes the §2.2 I/O arithmetic.
type Capacity struct {
	PerDirection sim.Rate // N·F·W·R
	Total        sim.Rate // both directions
	PerSwitchIO  sim.Rate // 2(N·F·W·R)/H
	PortRate     sim.Rate // α·W·R
	Fibers       int
	Wavelengths  int // per fiber
}

// Capacity returns the design's I/O capacity figures.
func (r *Router) Capacity() Capacity {
	c := r.Cfg.SPS
	return Capacity{
		PerDirection: c.PackageIORate(),
		Total:        c.TotalIORate(),
		PerSwitchIO:  c.SwitchIORate(),
		PortRate:     c.PortRate(),
		Fibers:       c.N * c.F,
		Wavelengths:  c.WDM.Wavelengths,
	}
}

// PowerModel returns the §4 power model at this design point.
func (r *Router) PowerModel() power.Model {
	m := power.Reference()
	m.IngressRate = r.Cfg.SPS.PackageIORate() / sim.Rate(r.Cfg.SPS.H)
	m.IORate = r.Cfg.SPS.SwitchIORate()
	m.Stacks = r.Cfg.Switch.Geometry.Stacks
	m.Switches = r.Cfg.SPS.H
	return m
}

// AreaModel returns the §4 area model at this design point.
func (r *Router) AreaModel() area.Model {
	m := area.Reference()
	m.Stacks = r.Cfg.Switch.Geometry.Stacks
	m.Switches = r.Cfg.SPS.H
	return m
}

// BufferReport returns the §4 buffer-sizing comparison for the given
// RTT and flow count.
func (r *Router) BufferReport(rtt sim.Time, flows int) buffer.Report {
	// The paper's §4 arithmetic uses decimal gigabytes (64 GB/stack).
	capacityBytes := int64(r.Cfg.SPS.H) * int64(r.Cfg.Switch.Geometry.Stacks) * 64e9
	return buffer.Analyze(capacityBytes, r.Cfg.SPS.PackageIORate(), rtt, flows)
}

// SRAMSizing returns the §4 on-chip SRAM budget of one HBM switch.
func (r *Router) SRAMSizing() sram.Sizing {
	return sram.Sizing{
		N:          r.Cfg.Switch.PFI.N,
		BatchBytes: r.Cfg.Switch.PFI.BatchBytes,
		FrameBytes: r.Cfg.Switch.PFI.FrameBytes(),
	}
}

// SimOptions configure a packet-level simulation run.
type SimOptions struct {
	Matrix  *traffic.Matrix
	Arrival traffic.ArrivalKind
	Sizes   traffic.SizeDist
	Horizon sim.Time
	Seed    uint64
	Shadow  bool
	Mutate  func(*hbmswitch.Config) // optional per-run tweaks
}

// SimulateSwitch runs one HBM switch (1/H of the router) under the
// given workload and returns its report.
func (r *Router) SimulateSwitch(opt SimOptions) (*hbmswitch.Report, error) {
	cfg := r.Cfg.Switch
	cfg.Shadow = opt.Shadow
	if opt.Mutate != nil {
		opt.Mutate(&cfg)
	}
	sw, err := hbmswitch.New(cfg)
	if err != nil {
		return nil, err
	}
	if opt.Sizes == nil {
		opt.Sizes = traffic.IMIX()
	}
	if opt.Matrix == nil {
		opt.Matrix = traffic.Uniform(cfg.PFI.N, 0.9)
	}
	srcs := traffic.UniformSources(opt.Matrix, cfg.PortRate, opt.Arrival, opt.Sizes, sim.NewRNG(opt.Seed+1))
	return sw.Run(traffic.NewMux(srcs), opt.Horizon)
}

// ReplayTrace runs one HBM switch on a recorded workload (a trace
// written by cmd/trafficgen or traffic.TraceWriter), returning the
// report. Replays are bit-for-bit reproducible.
func (r *Router) ReplayTrace(trace io.Reader, horizon Duration, mutate func(*SwitchConfig)) (*SwitchReport, error) {
	cfg := r.Cfg.Switch
	if mutate != nil {
		mutate(&cfg)
	}
	sw, err := hbmswitch.New(cfg)
	if err != nil {
		return nil, err
	}
	ts, err := traffic.NewTraceStream(trace, 1)
	if err != nil {
		return nil, err
	}
	if ts.Header().N != cfg.PFI.N {
		return nil, fmt.Errorf("router: trace has %d ports, switch has %d", ts.Header().N, cfg.PFI.N)
	}
	rep, err := sw.Run(ts, horizon)
	if err != nil {
		return nil, err
	}
	if ts.Err() != nil {
		return nil, ts.Err()
	}
	return rep, nil
}

// SimulateSPS runs the whole split-parallel router at packet level on
// an explicit flow set.
func (r *Router) SimulateSPS(flows []sps.Flow, opt SimOptions) (*sps.RouterReport, error) {
	cfg := r.Cfg.Switch
	if opt.Mutate != nil {
		opt.Mutate(&cfg)
	}
	rt, err := sps.NewRouter(r.Dep, cfg)
	if err != nil {
		return nil, err
	}
	if opt.Sizes == nil {
		opt.Sizes = traffic.IMIX()
	}
	return rt.Run(flows, opt.Arrival, opt.Sizes, opt.Horizon, opt.Seed+1)
}
