package resilience

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

	"pbrouter/internal/hbmswitch"
	"pbrouter/internal/parallel"
	"pbrouter/internal/sim"
	"pbrouter/internal/sps"
	"pbrouter/internal/telemetry"
	"pbrouter/internal/traffic"
	"pbrouter/internal/validate"
)

// Campaign is one fault-injection experiment: an SPS deployment, a
// per-switch configuration, a fault schedule, and a traffic pattern,
// simulated epoch by epoch.
type Campaign struct {
	SPS    sps.Config
	Switch hbmswitch.Config
	Faults []Fault
	// Flows are the offered flows; nil generates uniform fiber flows at
	// Load with the campaign seed.
	Flows []sps.Flow
	Load  float64
	Kind  traffic.ArrivalKind
	Sizes traffic.SizeDist
	// Horizon bounds the campaign in simulated time.
	Horizon sim.Time
	Seed    uint64
	// Workers caps the (epoch x switch) simulation parallelism; <= 0
	// uses one worker per CPU. The report bytes are identical for every
	// value.
	Workers int
	// Validate attaches the structural probe to every run and the
	// OQ-mimicry shadow to healthy switches, collecting invariant
	// violations per epoch.
	Validate bool
	// Ctx, when non-nil, cancels the campaign between (epoch, switch)
	// jobs: Run stops claiming jobs and returns the context's error. A
	// nil Ctx never cancels. Cancellation never yields a partial
	// report.
	Ctx context.Context
}

// ctx normalizes Campaign.Ctx.
func (c *Campaign) ctx() context.Context {
	if c.Ctx == nil {
		return context.Background()
	}
	return c.Ctx
}

// check validates the campaign parameters.
func (c *Campaign) check() error {
	if err := c.SPS.Validate(); err != nil {
		return err
	}
	if c.Switch.PFI.N != c.SPS.N {
		return fmt.Errorf("resilience: switch has %d ports, SPS has %d ribbons",
			c.Switch.PFI.N, c.SPS.N)
	}
	if c.Horizon <= 0 {
		return fmt.Errorf("resilience: horizon must be positive, got %v", c.Horizon)
	}
	if c.Flows == nil && (c.Load <= 0 || c.Load > 1) {
		return fmt.Errorf("resilience: load must be in (0,1], got %v", c.Load)
	}
	return nil
}

// EpochResult is the measured outcome of one constant-health interval.
type EpochResult struct {
	Start, End sim.Time
	State      State
	// CapacityFraction is the surviving fraction of nominal package
	// bandwidth (dead switches gone entirely, surviving switches scaled
	// by their live-channel fraction).
	CapacityFraction float64
	// OfferedGbps and GoodputGbps are the offered and steady delivered
	// rates across the package.
	OfferedGbps float64
	GoodputGbps float64
	// Availability is delivered/offered for the epoch, in [0,1].
	Availability float64
	// Violations are the invariant violations of the epoch's runs
	// (Campaign.Validate only), prefixed with the switch index.
	Violations []validate.Violation
}

// Report is the outcome of a campaign.
type Report struct {
	Epochs []EpochResult
	// Availability is the time-weighted mean of per-epoch availability
	// — the fraction of offered traffic the degraded package delivered.
	Availability float64
	// Series carries one row per epoch start (capacity_fraction,
	// offered_gbps, goodput_gbps, availability, failure counts).
	Series telemetry.Series
	// Events logs every fault and repair inside the horizon.
	Events *telemetry.EventLog
}

// Violations flattens all epoch violations.
func (r *Report) Violations() []validate.Violation {
	var vs []validate.Violation
	for _, ep := range r.Epochs {
		vs = append(vs, ep.Violations...)
	}
	return vs
}

// capacityFraction computes the surviving bandwidth fraction of the
// package: each dead switch loses its full 1/H share; each surviving
// switch is scaled by its live-channel fraction (dead bank groups cost
// buffer capacity, not bandwidth, and dimmed fibers reduce offered
// load rather than capacity).
func capacityFraction(st State, channels int) float64 {
	if len(st.Alive) == 0 {
		return 1
	}
	var frac float64
	for h, alive := range st.Alive {
		if !alive {
			continue
		}
		frac += float64(channels-len(st.DeadChannels[h])) / float64(channels)
	}
	return frac / float64(len(st.Alive))
}

// ScaleFlows returns the flows with every dimmed fiber's flows scaled
// to the surviving fraction. With no dimming the input is returned
// unchanged.
func ScaleFlows(flows []sps.Flow, dimmed []FiberDim) []sps.Flow {
	if len(dimmed) == 0 {
		return flows
	}
	scale := make(map[[2]int]float64, len(dimmed))
	for _, d := range dimmed {
		scale[[2]int{d.Ribbon, d.Fiber}] = d.Scale
	}
	out := make([]sps.Flow, len(flows))
	copy(out, flows)
	for i := range out {
		if s, ok := scale[[2]int{out[i].SrcRibbon, out[i].Fiber}]; ok {
			out[i].Rate *= s
		}
	}
	return out
}

// SwitchSim holds what every (epoch, live switch) simulation of an
// epoch-by-epoch campaign shares; Run is the per-switch job body of
// both this engine and the splitter-policy engine.
type SwitchSim struct {
	Switch   hbmswitch.Config // healthy per-switch configuration
	Kind     traffic.ArrivalKind
	Sizes    traffic.SizeDist
	Seed     uint64
	Validate bool
}

// SwitchResult is the outcome of one (epoch, live switch) simulation.
type SwitchResult struct {
	Report *hbmswitch.Report
	// Violations are the epoch's invariant violations (Validate only),
	// prefixed with the switch index.
	Violations []validate.Violation
}

// Run simulates live switch sw for epoch e (duration dur, health state
// st) on matrix m. The switch runs degraded by st, with the OQ shadow
// on when validating a healthy switch. Its traffic seed keys on
// e*H + sw only (H = len(st.Alive)), so a switch's run never depends
// on which other switches died.
func (s SwitchSim) Run(st State, e, sw int, m *traffic.Matrix, dur sim.Time) (SwitchResult, error) {
	cfg := s.Switch
	cfg.Degraded = hbmswitch.Degraded{
		DeadGroups:   st.DeadGroups[sw],
		DeadChannels: st.DeadChannels[sw],
	}
	cfg.Shadow = s.Validate && st.SwitchHealthy(sw)
	sps.ClampRows(m)
	swm, err := hbmswitch.New(cfg)
	if err != nil {
		return SwitchResult{}, fmt.Errorf("epoch %d switch %d: %w", e, sw, err)
	}
	var obs *validate.Observer
	if s.Validate {
		obs = validate.NewObserver(cfg, dur)
		swm.SetProbe(obs.Probe())
	}
	seed := parallel.Seed(s.Seed, e*len(st.Alive)+sw)
	srcs := traffic.UniformSources(m, cfg.PortRate, s.Kind, s.Sizes, sim.NewRNG(seed))
	rep, err := swm.Run(traffic.NewMux(srcs), dur)
	if err != nil {
		return SwitchResult{}, fmt.Errorf("epoch %d switch %d: %w", e, sw, err)
	}
	res := SwitchResult{Report: rep}
	if obs != nil {
		for _, v := range obs.CheckEpoch(rep, m.Admissible(1e-6)) {
			v.Detail = fmt.Sprintf("switch %d: %s", sw, v.Detail)
			res.Violations = append(res.Violations, v)
		}
	}
	return res, nil
}

// Run executes the campaign: it slices the horizon into constant-health
// epochs, re-derives the degraded splitter assignment and per-switch
// matrices for each, and simulates every (epoch, surviving switch)
// pair with a seed derived only from its index — so reports are
// byte-identical across worker counts.
func (c *Campaign) Run() (*Report, error) {
	if err := c.check(); err != nil {
		return nil, err
	}
	dep, err := sps.NewDeployment(c.SPS)
	if err != nil {
		return nil, err
	}
	flows := c.Flows
	if flows == nil {
		if flows, err = sps.UniformFiberFlows(c.SPS, c.Load, c.Seed); err != nil {
			return nil, err
		}
	}
	if c.Sizes == nil {
		c.Sizes = traffic.IMIX()
	}
	eps := Epochs(c.Faults, c.Horizon)
	h := c.SPS.H

	// Lay out every (epoch, alive switch) simulation job up front, in
	// deterministic order.
	type job struct{ epoch, sw int }
	var jobs []job
	states := make([]State, len(eps))
	mats := make([][]*traffic.Matrix, len(eps))
	offered := make([]float64, len(eps)) // Gb/s per epoch
	fiberGbps := float64(c.SPS.FiberRate()) / 1e9
	for e, ep := range eps {
		st := StateAt(c.Faults, ep.Start, h)
		states[e] = st
		degDep, err := dep.Degrade(st.Alive, c.SPS.Seed)
		if err != nil {
			return nil, fmt.Errorf("resilience: epoch %d degrade: %w", e, err)
		}
		epFlows := ScaleFlows(flows, st.Dimmed)
		for _, f := range epFlows {
			offered[e] += f.Rate * fiberGbps
		}
		mats[e] = degDep.SwitchMatrices(epFlows)
		for sw := 0; sw < h; sw++ {
			if st.Alive[sw] {
				jobs = append(jobs, job{epoch: e, sw: sw})
			}
		}
	}

	ss := SwitchSim{Switch: c.Switch, Kind: c.Kind, Sizes: c.Sizes, Seed: c.Seed, Validate: c.Validate}
	results, err := parallel.MapCtx(c.ctx(), parallel.Workers(c.Workers), len(jobs), func(i int) (SwitchResult, error) {
		j := jobs[i]
		return ss.Run(states[j.epoch], j.epoch, j.sw, mats[j.epoch][j.sw], eps[j.epoch].Duration())
	})
	if err != nil {
		return nil, err
	}

	rep := &Report{Events: &telemetry.EventLog{}}
	rep.Epochs = make([]EpochResult, len(eps))
	portGbps := float64(c.SPS.PortRate()) / 1e9 * float64(c.SPS.N)
	channels := c.Switch.PFI.Channels
	for e, ep := range eps {
		rep.Epochs[e] = EpochResult{
			Start:            ep.Start,
			End:              ep.End,
			State:            states[e],
			CapacityFraction: capacityFraction(states[e], channels),
			OfferedGbps:      offered[e],
		}
	}
	for i, j := range jobs {
		er := &rep.Epochs[j.epoch]
		er.GoodputGbps += results[i].Report.Throughput * portGbps
		er.Violations = append(er.Violations, results[i].Violations...)
	}
	var availSum, durSum float64
	for e := range rep.Epochs {
		er := &rep.Epochs[e]
		if er.OfferedGbps > 0 {
			er.Availability = er.GoodputGbps / er.OfferedGbps
			if er.Availability > 1 {
				er.Availability = 1
			}
		} else {
			er.Availability = 1
		}
		d := (er.End - er.Start).Seconds()
		availSum += er.Availability * d
		durSum += d
	}
	if durSum > 0 {
		rep.Availability = availSum / durSum
	}

	for _, f := range c.Faults {
		if f.Fail < c.Horizon {
			rep.Events.Add(f.Fail, "fail", f.Component())
		}
		if f.Repair < c.Horizon {
			rep.Events.Add(f.Repair, "repair", f.Component())
		}
	}
	rep.Events.Sort()
	rep.Series = c.buildSeries(rep.Epochs)
	return rep, nil
}

// buildSeries renders the epoch results as a telemetry time series,
// one row per epoch start.
func (c *Campaign) buildSeries(eps []EpochResult) telemetry.Series {
	s := telemetry.Series{Names: []string{
		"capacity_fraction", "offered_gbps", "goodput_gbps", "availability",
		"failed_switches", "dead_channels", "dead_groups", "dimmed_fibers",
	}}
	for _, ep := range eps {
		sw, ch, gr, fb := ep.State.Counts()
		s.Times = append(s.Times, ep.Start)
		s.Rows = append(s.Rows, []float64{
			ep.CapacityFraction, ep.OfferedGbps, ep.GoodputGbps, ep.Availability,
			float64(sw), float64(ch), float64(gr), float64(fb),
		})
	}
	return s
}

// WriteCSV writes the per-epoch campaign table, one row per epoch.
func (r *Report) WriteCSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString("epoch,start_ps,end_ps,capacity_fraction,offered_gbps,goodput_gbps,availability,failed_switches,dead_channels,dead_groups,dimmed_fibers,violations\n")
	for e, ep := range r.Epochs {
		sw, ch, gr, fb := ep.State.Counts()
		fmt.Fprintf(&b, "%d,%d,%d,%s,%s,%s,%s,%d,%d,%d,%d,%d\n",
			e, int64(ep.Start), int64(ep.End),
			FormatFloat(ep.CapacityFraction), FormatFloat(ep.OfferedGbps),
			FormatFloat(ep.GoodputGbps), FormatFloat(ep.Availability),
			sw, ch, gr, fb, len(ep.Violations))
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteJSON writes the campaign report as one deterministic JSON
// object.
func (r *Report) WriteJSON(w io.Writer) error {
	var b strings.Builder
	b.WriteString(`{"schema":"pbrouter-resilience/1","availability":`)
	b.WriteString(FormatFloat(r.Availability))
	b.WriteString(`,"epochs":[`)
	for e, ep := range r.Epochs {
		if e > 0 {
			b.WriteByte(',')
		}
		sw, ch, gr, fb := ep.State.Counts()
		fmt.Fprintf(&b, `{"start_ps":%d,"end_ps":%d,"capacity_fraction":%s,"offered_gbps":%s,"goodput_gbps":%s,"availability":%s,"failed_switches":%d,"dead_channels":%d,"dead_groups":%d,"dimmed_fibers":%d,"violations":[`,
			int64(ep.Start), int64(ep.End),
			FormatFloat(ep.CapacityFraction), FormatFloat(ep.OfferedGbps),
			FormatFloat(ep.GoodputGbps), FormatFloat(ep.Availability),
			sw, ch, gr, fb)
		for i, v := range ep.Violations {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `{"invariant":%s,"detail":%s}`,
				strconv.Quote(v.Invariant), strconv.Quote(v.Detail))
		}
		b.WriteString("]}")
	}
	b.WriteString("]}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// FormatFloat renders a float compactly and deterministically (the
// telemetry convention: integers without a decimal point); the
// campaign report writers here and in splitpolicy share it.
func FormatFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 9, 64)
}
