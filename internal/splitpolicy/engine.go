package splitpolicy

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

	"pbrouter/internal/hbmswitch"
	"pbrouter/internal/optics"
	"pbrouter/internal/parallel"
	"pbrouter/internal/resilience"
	"pbrouter/internal/sim"
	"pbrouter/internal/sps"
	"pbrouter/internal/telemetry"
	"pbrouter/internal/traffic"
	"pbrouter/internal/validate"
)

// Campaign is one splitter-policy experiment: an SPS deployment, a
// policy, a flow population, an optional fault schedule, and a fixed
// number of rehash epochs over the horizon. Epochs run sequentially
// (the policy's sense at epoch e depends on epoch e-1's measurements);
// the per-switch simulations inside each epoch run in parallel with
// seeds derived only from (epoch, switch) — so reports are
// byte-identical across worker counts, exactly the resilience engine's
// convention and compatible with sps.Router.RunSharded's lockstep
// epoch slicing.
type Campaign struct {
	SPS    sps.Config
	Switch hbmswitch.Config
	// Policy names the splitter policy (PolicyNames).
	Policy string
	// Flows are the offered flows; nil generates uniform fiber flows at
	// Load with the campaign seed.
	Flows []sps.Flow
	Load  float64
	// Faults inject fail/repair churn; health is sampled at each epoch
	// start.
	Faults []resilience.Fault
	Kind   traffic.ArrivalKind
	Sizes  traffic.SizeDist
	// Horizon bounds the campaign; it is sliced into Epochs equal
	// rehash epochs.
	Horizon sim.Time
	Epochs  int
	Seed    uint64
	// Workers caps the per-epoch switch-simulation parallelism; <= 0
	// uses one worker per CPU. The report bytes are identical for every
	// value.
	Workers int
	// Validate attaches the structural probe to every run and the
	// OQ-mimicry shadow to healthy switches — every rehash transition
	// is checked for FIFO/conservation violations.
	Validate bool
	// Ctx, when non-nil, cancels the campaign between epochs and
	// between per-switch jobs. Cancellation never yields a partial
	// report.
	Ctx context.Context
}

func (c *Campaign) ctx() context.Context {
	if c.Ctx == nil {
		return context.Background()
	}
	return c.Ctx
}

func (c *Campaign) check() error {
	if err := c.SPS.Validate(); err != nil {
		return err
	}
	if c.Switch.PFI.N != c.SPS.N {
		return fmt.Errorf("splitpolicy: switch has %d ports, SPS has %d ribbons",
			c.Switch.PFI.N, c.SPS.N)
	}
	if c.Horizon <= 0 {
		return fmt.Errorf("splitpolicy: horizon must be positive, got %v", c.Horizon)
	}
	if c.Epochs < 1 {
		return fmt.Errorf("splitpolicy: need at least one epoch, got %d", c.Epochs)
	}
	if c.Flows == nil && (c.Load <= 0 || c.Load > 1) {
		return fmt.Errorf("splitpolicy: load must be in (0,1], got %v", c.Load)
	}
	if _, err := NewPolicy(c.Policy); err != nil {
		return err
	}
	return nil
}

// EpochResult is the measured outcome of one rehash epoch.
type EpochResult struct {
	Start, End sim.Time
	// Rehashed reports whether the policy installed a new assignment
	// this epoch; MovedFibers counts the (ribbon, fiber) entries that
	// changed switch relative to the previous epoch.
	Rehashed    bool
	MovedFibers int
	// OfferedMaxOverMean is the splitter-level imbalance: max/mean of
	// per-switch offered load over the live switches. 1.0 is a perfect
	// split.
	OfferedMaxOverMean float64
	// DeliveredMaxOverMean is the same ratio over measured delivered
	// bytes — the packet-level ground truth.
	DeliveredMaxOverMean float64
	OfferedGbps          float64
	GoodputGbps          float64
	// SwitchLoad is the per-switch offered load (fraction of switch
	// capacity) under the epoch's assignment.
	SwitchLoad []float64
	// Violations are the epoch's invariant violations (Campaign.
	// Validate only), prefixed with the switch index.
	Violations []validate.Violation
}

// Report is the outcome of a campaign.
type Report struct {
	Policy string
	Epochs []EpochResult
	// Rehashes and MovedFibers total the policy's activity.
	Rehashes    int
	MovedFibers int
	// OfferedMaxOverMean and DeliveredMaxOverMean are time-weighted
	// means over the epochs — the sweep's headline imbalance metrics.
	OfferedMaxOverMean   float64
	DeliveredMaxOverMean float64
	// GoodputGbps is the time-weighted mean delivered rate.
	GoodputGbps float64
	// Series carries the split.policy.* telemetry trajectory, one row
	// per epoch start.
	Series telemetry.Series
}

// Violations flattens all epoch violations.
func (r *Report) Violations() []validate.Violation {
	var vs []validate.Violation
	for _, ep := range r.Epochs {
		vs = append(vs, ep.Violations...)
	}
	return vs
}

// maxOverMeanLive computes max/mean over the live entries only; dead
// switches carry no fibers and must not drag the mean down.
func maxOverMeanLive(vals []float64, alive []bool) float64 {
	var sum, max float64
	n := 0
	for i, v := range vals {
		if alive != nil && !alive[i] {
			continue
		}
		sum += v
		if v > max {
			max = v
		}
		n++
	}
	if n == 0 || sum == 0 {
		return 0
	}
	return max / (sum / float64(n))
}

// epochSlice returns the [start, end) of epoch e of n over the
// horizon, covering it exactly.
func epochSlice(horizon sim.Time, e, n int) (sim.Time, sim.Time) {
	start := horizon * sim.Time(e) / sim.Time(n)
	end := horizon * sim.Time(e+1) / sim.Time(n)
	return start, end
}

// Run executes the campaign epoch by epoch. For the static policy the
// per-epoch assignment is exactly what the pre-policy code path
// produces — the plain splitter, or optics.Splitter.Degrade at the
// deployment seed under faults — so static results are byte-identical
// to today's. Adaptive policies re-hash through Reassign, which
// validates every transition structurally; Campaign.Validate
// additionally checks the FIFO/conservation invariants on every run.
func (c *Campaign) Run() (*Report, error) {
	if err := c.check(); err != nil {
		return nil, err
	}
	dep, err := sps.NewDeployment(c.SPS)
	if err != nil {
		return nil, err
	}
	policy, err := NewPolicy(c.Policy)
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
	h := c.SPS.H
	workers := parallel.Workers(c.Workers)
	fiberGbps := float64(c.SPS.FiberRate()) / 1e9
	portGbps := float64(c.SPS.PortRate()) / 1e9 * float64(c.SPS.N)
	switchCap := float64(c.SPS.N * c.SPS.Alpha())
	ss := resilience.SwitchSim{Switch: c.Switch, Kind: c.Kind, Sizes: c.Sizes, Seed: c.Seed, Validate: c.Validate}

	rep := &Report{Policy: c.Policy}
	cur := dep
	var prev Sense     // previous epoch's measurements for the policy
	var ewma []float64 // EWMA per-switch load across epochs → Sense.PredictedLoad

	for e := 0; e < c.Epochs; e++ {
		if err := c.ctx().Err(); err != nil {
			return nil, err
		}
		start, end := epochSlice(c.Horizon, e, c.Epochs)
		st := resilience.StateAt(c.Faults, start, h)
		anyDead := false
		for _, a := range st.Alive {
			if !a {
				anyDead = true
				break
			}
		}
		var alive []bool
		if anyDead {
			alive = st.Alive
		}
		epFlows := resilience.ScaleFlows(flows, st.Dimmed)
		sense := Sense{
			Epoch:          e,
			FiberLoad:      dep.FiberLoads(epFlows),
			SwitchLoad:     prev.SwitchLoad,
			DeliveredBytes: prev.DeliveredBytes,
			QueuePeak:      prev.QueuePeak,
			PredictedLoad:  prev.PredictedLoad,
			Alive:          st.Alive,
		}
		prevSplitter := cur.Splitter
		rehashRNG := sim.NewRNG(parallel.Seed(c.Seed^0x5911c3, e))
		if next := policy.Rehash(cur.Splitter, sense, rehashRNG); next != nil {
			if cur, err = cur.Reassign(next, alive); err != nil {
				return nil, fmt.Errorf("splitpolicy: epoch %d %s rehash: %w", e, c.Policy, err)
			}
		} else {
			// Static baseline: the plain splitter, degraded at the
			// deployment seed when switches are down — exactly the
			// resilience engine's path.
			if cur, err = dep.Degrade(st.Alive, c.SPS.Seed); err != nil {
				return nil, fmt.Errorf("splitpolicy: epoch %d degrade: %w", e, err)
			}
		}
		moved := optics.MovedFibers(prevSplitter, cur.Splitter)
		er := EpochResult{
			Start:       start,
			End:         end,
			Rehashed:    moved > 0,
			MovedFibers: moved,
		}
		if er.Rehashed {
			rep.Rehashes++
			rep.MovedFibers += moved
		}

		// Offered view under the epoch's assignment.
		er.SwitchLoad = cur.SwitchLoads(epFlows)
		er.OfferedMaxOverMean = maxOverMeanLive(er.SwitchLoad, st.Alive)
		for _, f := range epFlows {
			er.OfferedGbps += f.Rate * fiberGbps
		}

		// Simulate every live switch of the epoch in parallel, seeds
		// keyed on epoch*H+switch only.
		mats := cur.SwitchMatrices(epFlows)
		live := liveSwitches(h, st.Alive)
		dur := end - start
		results, err := parallel.MapCtx(c.ctx(), workers, len(live), func(i int) (resilience.SwitchResult, error) {
			return ss.Run(st, e, live[i], mats[live[i]], dur)
		})
		if err != nil {
			return nil, err
		}

		delivered := make([]float64, h)
		queuePeak := make([]int64, h)
		deliveredBytes := make([]int64, h)
		for i, sw := range live {
			r := results[i].Report
			er.GoodputGbps += r.Throughput * portGbps
			delivered[sw] = float64(r.DeliveredBytes)
			deliveredBytes[sw] = r.DeliveredBytes
			queuePeak[sw] = r.TailHighWater
			er.Violations = append(er.Violations, results[i].Violations...)
		}
		er.DeliveredMaxOverMean = maxOverMeanLive(delivered, st.Alive)
		rep.Epochs = append(rep.Epochs, er)

		// Feed the measurements back for the next epoch's sense.
		prev = Sense{
			Epoch:          e,
			SwitchLoad:     normalizeLoads(er.SwitchLoad, switchCap),
			DeliveredBytes: deliveredBytes,
			QueuePeak:      queuePeak,
			Alive:          st.Alive,
		}
		ewma = updateEWMA(ewma, prev.SwitchLoad)
		prev.PredictedLoad = ewma
		policy.Observe(prev)
	}

	var momSum, dmomSum, goodSum, durSum float64
	for _, ep := range rep.Epochs {
		d := (ep.End - ep.Start).Seconds()
		momSum += ep.OfferedMaxOverMean * d
		dmomSum += ep.DeliveredMaxOverMean * d
		goodSum += ep.GoodputGbps * d
		durSum += d
	}
	if durSum > 0 {
		rep.OfferedMaxOverMean = momSum / durSum
		rep.DeliveredMaxOverMean = dmomSum / durSum
		rep.GoodputGbps = goodSum / durSum
	}
	rep.Series = buildSeries(rep.Epochs)
	return rep, nil
}

// predictEWMAAlpha weights the newest epoch in the per-switch load
// forecast. 0.5 halves a stale epoch's influence every boundary —
// responsive enough for the 4-epoch default campaigns, smooth enough
// that one adversarial epoch does not dominate the prediction.
const predictEWMAAlpha = 0.5

// updateEWMA folds the epoch's measured per-switch loads into the
// running forecast, returning a fresh slice (senses must not alias).
func updateEWMA(ewma, loads []float64) []float64 {
	out := make([]float64, len(loads))
	if len(ewma) != len(loads) {
		copy(out, loads)
		return out
	}
	for i, l := range loads {
		out[i] = predictEWMAAlpha*l + (1-predictEWMAAlpha)*ewma[i]
	}
	return out
}

// normalizeLoads converts per-switch offered load from fiber-capacity
// units into a fraction of switch capacity.
func normalizeLoads(loads []float64, switchCap float64) []float64 {
	out := make([]float64, len(loads))
	for i, l := range loads {
		out[i] = l / switchCap
	}
	return out
}

// buildSeries renders the epoch results as the split.policy.*
// telemetry trajectory, one row per epoch start.
func buildSeries(eps []EpochResult) telemetry.Series {
	s := telemetry.Series{Names: []string{
		"split.policy.rehashes", "split.policy.moved_fibers",
		"split.policy.offered_max_over_mean", "split.policy.delivered_max_over_mean",
		"split.policy.offered_gbps", "split.policy.goodput_gbps",
		"split.policy.violations",
	}}
	rehashes := 0
	for _, ep := range eps {
		if ep.Rehashed {
			rehashes++
		}
		s.Times = append(s.Times, ep.Start)
		s.Rows = append(s.Rows, []float64{
			float64(rehashes), float64(ep.MovedFibers),
			ep.OfferedMaxOverMean, ep.DeliveredMaxOverMean,
			ep.OfferedGbps, ep.GoodputGbps,
			float64(len(ep.Violations)),
		})
	}
	return s
}

// WriteCSV writes the per-epoch campaign table.
func (r *Report) WriteCSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString("epoch,start_ps,end_ps,rehashed,moved_fibers,offered_max_over_mean,delivered_max_over_mean,offered_gbps,goodput_gbps,violations\n")
	for e, ep := range r.Epochs {
		rh := 0
		if ep.Rehashed {
			rh = 1
		}
		fmt.Fprintf(&b, "%d,%d,%d,%d,%d,%s,%s,%s,%s,%d\n",
			e, int64(ep.Start), int64(ep.End), rh, ep.MovedFibers,
			resilience.FormatFloat(ep.OfferedMaxOverMean), resilience.FormatFloat(ep.DeliveredMaxOverMean),
			resilience.FormatFloat(ep.OfferedGbps), resilience.FormatFloat(ep.GoodputGbps),
			len(ep.Violations))
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteJSON writes the campaign report as one deterministic JSON
// object.
func (r *Report) WriteJSON(w io.Writer) error {
	var b strings.Builder
	b.WriteString(`{"schema":"pbrouter-splitpolicy/1","policy":`)
	b.WriteString(strconv.Quote(r.Policy))
	fmt.Fprintf(&b, `,"rehashes":%d,"moved_fibers":%d,"offered_max_over_mean":%s,"delivered_max_over_mean":%s,"goodput_gbps":%s,"epochs":[`,
		r.Rehashes, r.MovedFibers,
		resilience.FormatFloat(r.OfferedMaxOverMean), resilience.FormatFloat(r.DeliveredMaxOverMean),
		resilience.FormatFloat(r.GoodputGbps))
	for e, ep := range r.Epochs {
		if e > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"start_ps":%d,"end_ps":%d,"rehashed":%t,"moved_fibers":%d,"offered_max_over_mean":%s,"delivered_max_over_mean":%s,"offered_gbps":%s,"goodput_gbps":%s,"violations":[`,
			int64(ep.Start), int64(ep.End), ep.Rehashed, ep.MovedFibers,
			resilience.FormatFloat(ep.OfferedMaxOverMean), resilience.FormatFloat(ep.DeliveredMaxOverMean),
			resilience.FormatFloat(ep.OfferedGbps), resilience.FormatFloat(ep.GoodputGbps))
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
