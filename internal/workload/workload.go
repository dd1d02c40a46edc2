// Package workload generates realistic flow-level traffic for the
// cross-architecture experiments: heavy-tailed flow sizes (bounded
// Pareto or lognormal, with a configurable tail index), ON/OFF bursty
// sources with exponential or Pareto on/off durations, diurnal load
// modulation over the simulation horizon, and binary trace replay with
// rate rescaling. Where package traffic models packet-granular arrival
// processes, this package models the *flow* structure of internet
// traffic — elephants and mice, busy periods, time-of-day swings —
// which is what separates the paper's §2 architectures under load the
// synthetic matrices never exercise.
//
// Every generator composes with the existing traffic matrices (the
// matrix row supplies per-output weights and the offered load) and is
// deterministic per (seed, source index): sources are built from
// forked RNG streams in input order, so equal seeds give bit-equal
// packet sequences regardless of the consuming architecture.
package workload

import (
	"fmt"
	"os"
	"strings"

	"pbrouter/internal/sim"
	"pbrouter/internal/traffic"
)

// Workload kinds, as accepted by -workload flags and the arch sweep.
const (
	// KindUniform is the classic packet-granular Poisson/IMIX workload —
	// the control column every new workload is compared against.
	KindUniform = "uniform"
	// KindHeavyTail is the flow-level workload: flows arrive Poisson,
	// sizes are heavy-tailed (Pareto or lognormal), and each flow is
	// emitted as an MTU-segmented back-to-back packet train at line
	// rate — heavy-tailed busy periods.
	KindHeavyTail = "heavytail"
	// KindOnOff is the ON/OFF bursty source: alternating on/off periods
	// (exponential or Pareto durations) emitting at a peak rate
	// BurstRatio times the mean during ON.
	KindOnOff = "onoff"
	// KindDiurnal modulates a Poisson workload with a sinusoidal
	// day-curve over the horizon: load swings ±Amplitude around the
	// mean with the configured period.
	KindDiurnal = "diurnal"
	// KindReplay replays a binary trace (ReplayPath, written by
	// cmd/trafficgen), rescaling its time axis to hit the target load.
	KindReplay = "replay"
)

// Kinds lists every workload kind in canonical order.
func Kinds() []string {
	return []string{KindUniform, KindHeavyTail, KindOnOff, KindDiurnal, KindReplay}
}

// Config parameterizes one workload. The zero value of every knob
// normalizes to a sensible default, so {Kind: "heavytail"} is runnable
// as-is.
type Config struct {
	Kind string `json:"kind,omitempty"`

	// Heavy-tailed flow knobs.
	FlowDist   string  `json:"flow_dist,omitempty"`    // pareto|lognormal
	TailAlpha  float64 `json:"tail_alpha,omitempty"`   // Pareto tail index in (1, 5]
	SigmaLog   float64 `json:"sigma_log,omitempty"`    // lognormal log-stddev
	MeanFlowKB float64 `json:"mean_flow_kb,omitempty"` // mean flow size
	MaxFlowMB  float64 `json:"max_flow_mb,omitempty"`  // bounded-tail cap

	// ON/OFF knobs.
	BurstRatio float64  `json:"burst_ratio,omitempty"` // peak/mean load, >= 1
	OnDist     string   `json:"on_dist,omitempty"`     // exp|pareto durations
	OnMeanPs   sim.Time `json:"on_mean_ps,omitempty"`  // mean ON duration

	// Diurnal knobs.
	PeriodPs  sim.Time `json:"period_ps,omitempty"` // day-curve period
	Amplitude float64  `json:"amplitude,omitempty"` // load swing fraction in [0, 1)

	// Replay knobs.
	ReplayPath  string  `json:"replay_path,omitempty"`
	ReplayScale float64 `json:"replay_scale,omitempty"` // time-axis scale; 0 derives it from the load

	// Sizes is the packet-size distribution of the packet-granular
	// kinds (uniform, onoff, diurnal); nil means IMIX. Heavy-tailed
	// flows segment at the MTU instead, and replay takes sizes from the
	// trace.
	Sizes traffic.SizeDist `json:"-"`
}

// Normalize fills unset knobs with their defaults.
func (c *Config) Normalize() {
	if c.Kind == "" {
		c.Kind = KindUniform
	}
	if c.FlowDist == "" {
		c.FlowDist = "pareto"
	}
	if c.TailAlpha == 0 {
		c.TailAlpha = 1.3 // the classic internet flow-size tail
	}
	if c.SigmaLog == 0 {
		c.SigmaLog = 1.8
	}
	if c.MeanFlowKB == 0 {
		c.MeanFlowKB = 24
	}
	if c.MaxFlowMB == 0 {
		c.MaxFlowMB = 4
	}
	if c.BurstRatio == 0 {
		c.BurstRatio = 4
	}
	if c.OnDist == "" {
		c.OnDist = "pareto"
	}
	if c.OnMeanPs == 0 {
		c.OnMeanPs = 2 * sim.Microsecond
	}
	if c.PeriodPs == 0 {
		c.PeriodPs = 20 * sim.Microsecond
	}
	if c.Amplitude == 0 {
		c.Amplitude = 0.6
	}
	if c.Sizes == nil {
		c.Sizes = traffic.IMIX()
	}
}

// Check validates the configuration (after Normalize).
func (c Config) Check() error {
	switch c.Kind {
	case KindUniform, KindHeavyTail, KindOnOff, KindDiurnal, KindReplay:
	default:
		return fmt.Errorf("workload: unknown kind %q (%s)", c.Kind, strings.Join(Kinds(), "|"))
	}
	switch c.FlowDist {
	case "pareto", "lognormal":
	default:
		return fmt.Errorf("workload: unknown flow distribution %q (pareto|lognormal)", c.FlowDist)
	}
	if c.TailAlpha <= 1 || c.TailAlpha > 5 {
		return fmt.Errorf("workload: tail index must be in (1, 5], got %g", c.TailAlpha)
	}
	if c.SigmaLog <= 0 {
		return fmt.Errorf("workload: lognormal sigma must be positive, got %g", c.SigmaLog)
	}
	if c.MeanFlowKB <= 0 || c.MaxFlowMB <= 0 {
		return fmt.Errorf("workload: flow sizes must be positive (mean %g KB, max %g MB)",
			c.MeanFlowKB, c.MaxFlowMB)
	}
	if c.BurstRatio < 1 {
		return fmt.Errorf("workload: burst ratio is peak/mean load, must be >= 1, got %g", c.BurstRatio)
	}
	switch c.OnDist {
	case "exp", "pareto":
	default:
		return fmt.Errorf("workload: unknown on/off duration distribution %q (exp|pareto)", c.OnDist)
	}
	if c.OnMeanPs <= 0 {
		return fmt.Errorf("workload: mean ON duration must be positive, got %v", c.OnMeanPs)
	}
	if c.PeriodPs <= 0 {
		return fmt.Errorf("workload: diurnal period must be positive, got %v", c.PeriodPs)
	}
	if c.Amplitude < 0 || c.Amplitude >= 1 {
		return fmt.Errorf("workload: diurnal amplitude must be in [0, 1), got %g", c.Amplitude)
	}
	if c.Kind == KindReplay && c.ReplayPath == "" {
		return fmt.Errorf("workload: replay needs a trace path")
	}
	if c.ReplayScale < 0 {
		return fmt.Errorf("workload: replay scale must not be negative, got %g", c.ReplayScale)
	}
	return nil
}

// flowDist resolves the configured flow-size distribution.
func (c Config) flowDist() FlowDist {
	mean := int64(c.MeanFlowKB * 1024)
	max := int64(c.MaxFlowMB * 1024 * 1024)
	if c.FlowDist == "lognormal" {
		return NewLognormalFlows(float64(mean), c.SigmaLog, max)
	}
	return NewParetoFlows(c.TailAlpha, mean, max)
}

// New builds the workload stream for the given traffic matrix: one
// source per input (forked RNG streams in input order), merged in
// global arrival order with per-(input,output) sequence numbers
// assigned by the merge — the same contract traffic.Mux provides, so
// every simulator and baseline can consume the stream unchanged. The
// replay kind returns a *traffic.TraceStream, which holds its trace
// file open until the trace ends; a run that stops earlier must Close
// it.
func New(cfg Config, m *traffic.Matrix, lineRate sim.Rate, rng *sim.RNG) (traffic.Stream, error) {
	cfg.Normalize()
	if err := cfg.Check(); err != nil {
		return nil, err
	}
	switch cfg.Kind {
	case KindUniform:
		return traffic.NewMux(traffic.UniformSources(m, lineRate, traffic.Poisson, cfg.Sizes, rng)), nil
	case KindHeavyTail:
		var id uint64
		nextID := func() uint64 { id++; return id }
		streams := make([]traffic.Stream, m.N)
		for i := 0; i < m.N; i++ {
			streams[i] = NewFlowSource(i, m.Rates[i], lineRate, cfg.flowDist(), rng.Fork(), nextID)
		}
		return Merge(streams...), nil
	case KindOnOff:
		var id uint64
		nextID := func() uint64 { id++; return id }
		streams := make([]traffic.Stream, m.N)
		for i := 0; i < m.N; i++ {
			streams[i] = NewOnOffSource(OnOffConfig{
				Input:      i,
				Row:        m.Rates[i],
				LineRate:   lineRate,
				Sizes:      cfg.Sizes,
				BurstRatio: cfg.BurstRatio,
				OnMean:     cfg.OnMeanPs,
				Pareto:     cfg.OnDist == "pareto",
				RNG:        rng.Fork(),
				NextID:     nextID,
			})
		}
		return Merge(streams...), nil
	case KindDiurnal:
		mean := meanLoad(m)
		peak := mean * (1 + cfg.Amplitude)
		if peak > 0.98 {
			peak = 0.98 // keep the inner rows admissible
		}
		inner, err := scaledUniform(m, peak, lineRate, cfg.Sizes, rng)
		if err != nil {
			return nil, err
		}
		return NewDiurnal(inner, mean, peak, cfg.PeriodPs, rng.Fork()), nil
	case KindReplay:
		f, err := os.Open(cfg.ReplayPath)
		if err != nil {
			return nil, fmt.Errorf("workload: replay: %w", err)
		}
		ts, err := ReplayStream(f, m.N, lineRate, meanLoad(m), cfg.ReplayScale)
		if err != nil {
			f.Close()
			return nil, err
		}
		return ts, nil
	default:
		return nil, fmt.Errorf("workload: unknown kind %q", cfg.Kind)
	}
}

// scaledUniform builds a Poisson mux whose rows are the matrix's
// scaled to the target per-input load — the diurnal peak-rate inner
// stream the thinning wrapper modulates down.
func scaledUniform(m *traffic.Matrix, load float64, lineRate sim.Rate,
	sizes traffic.SizeDist, rng *sim.RNG) (traffic.Stream, error) {
	cur := meanLoad(m)
	if cur <= 0 {
		return nil, fmt.Errorf("workload: matrix offers zero load")
	}
	scaled := &traffic.Matrix{N: m.N, Rates: make([][]float64, m.N)}
	for i, row := range m.Rates {
		r := make([]float64, len(row))
		for j, v := range row {
			r[j] = v * load / cur
		}
		scaled.Rates[i] = r
	}
	return traffic.NewMux(traffic.UniformSources(scaled, lineRate, traffic.Poisson, sizes, rng)), nil
}

// meanLoad is the mean per-input offered load of a matrix.
func meanLoad(m *traffic.Matrix) float64 {
	if m.N == 0 {
		return 0
	}
	return m.Total() / float64(m.N)
}
