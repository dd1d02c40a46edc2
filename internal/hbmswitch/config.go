// Package hbmswitch is the event-driven simulator of one HBM switch —
// the full §3.2 pipeline of Fig. 3:
//
//	➀ input port SRAMs (per-output queues, 4 KB batch assembly)
//	➁ cyclical crossbar striping batch slices across N tail SRAM
//	   modules, where batches aggregate into 512 KB per-output frames
//	➂ PFI frame writes into the HBM group (staggered bank interleaving
//	   over T channels, command-level timing via internal/hbm)
//	➃ cyclical per-output frame reads (with optional padding/bypass)
//	➄ head SRAM modules
//	➅ output ports cutting batches back into packets, optionally
//	   hashing flows across the α·W egress wavelengths
//
// An optional shadow ideal output-queued switch receives the same
// arrival sequence so the relative-delay distribution (the §3.2 (6)
// mimicking claim) can be measured directly.
package hbmswitch

import (
	"fmt"

	"pbrouter/internal/core"
	"pbrouter/internal/hbm"
	"pbrouter/internal/sim"
)

// Config assembles an HBM switch.
type Config struct {
	// PFI holds the algorithm parameters (N, k, S, γ, T, L, rows).
	PFI core.Params
	// Geometry and Timing describe the HBM group. Geometry.Channels()
	// must equal PFI.Channels.
	Geometry hbm.Geometry
	Timing   hbm.Timing
	// PortRate is P, the line rate of each of the N ports
	// (α·W·R = 2.56 Tb/s in the reference design).
	PortRate sim.Rate
	// Speedup scales the HBM pin rate. 1.0 is the nominal §3.2 design;
	// a few percent of speedup absorbs the write/read turnaround
	// overhead and is what the OQ-mimicking claim assumes ("with a
	// small speedup").
	Speedup float64
	// Policy selects the latency options of §4 (frame padding, HBM
	// bypass).
	Policy core.Policy
	// FlushTimeout, when positive, flushes an input port's partial
	// batch after the queue has been quiet for this long, bounding the
	// batching delay at low load. Zero disables flushing.
	FlushTimeout sim.Time
	// PadTimeout is the minimum age of a forming frame before the
	// padding policy may pad it out (prevents padding from stealing
	// frames that are actively filling at high load). Zero pads
	// eagerly whenever the egress line idles.
	PadTimeout sim.Time
	// Shadow enables the ideal output-queued shadow switch used by the
	// mimicking experiments.
	Shadow bool
	// FullChannels disables the lockstep single-channel optimization
	// of the HBM model. PFI drives every channel with the identical
	// command stream, so the optimization is exact; full simulation is
	// for cross-checks.
	FullChannels bool
	// HashedEgress, when set, drains each output port through
	// Subchannels parallel egress channels chosen by flow hash (the
	// §3.2 ➅ ECMP/LAG behaviour) instead of one aggregate line.
	HashedEgress bool
	// Subchannels is the number of egress channels per output port
	// (α·W = 64 in the reference design). Only used with HashedEgress.
	Subchannels int
	// HashSeed diversifies the egress flow hash.
	HashSeed uint32
	// SharingAlpha, when positive with DynamicPages, applies the
	// Choudhury-Hahne dynamic-threshold buffer-sharing policy: an
	// output may hold at most SharingAlpha times the remaining free
	// pages (§5 "buffer management"). Zero means unrestricted sharing.
	SharingAlpha float64
	// DynamicPages, when positive, switches the HBM region allocation
	// from static 1/N regions to the §3.2 dynamic mode with
	// DynamicPages frame slots per shared page: an overloaded output
	// can then claim the whole memory. Must be a multiple of the
	// number of bank groups times segments-per-row so that page slots
	// align with the interleaving pattern.
	DynamicPages int64
	// EnableRefresh schedules HBM4 single-bank refreshes (REFsb) on
	// the bank interleaving groups round-robin at the tREFI cadence,
	// demonstrating §4's claim that refresh hides without affecting
	// the cycle time.
	EnableRefresh bool
	// DropSlackFrames is the ingress tail-drop threshold margin: a
	// packet is dropped at the input when its output's buffered frames
	// are within this many frames of capacity (covers frames still in
	// flight through the SRAM stages). Only meaningful when the HBM is
	// small enough to fill; the reference 256 GB never fills in
	// simulation timescales. Zero uses a default of 2N.
	DropSlackFrames int64
	// SelfTest injects deliberate model defects for validation
	// self-tests (internal/validate). These are NOT operational
	// failures: they break a discipline on purpose to prove the
	// harness's detectors fire. Operational component failures the
	// switch must route around live in Degraded instead. Production
	// configurations leave both zero.
	SelfTest SelfTestFaults
	// Degraded configures operational component failures injected by
	// the resilience subsystem (internal/resilience): the switch keeps
	// forwarding correctly at reduced capacity by excluding the dead
	// resources. Contrast with SelfTest, whose defects are deliberate
	// correctness breaks. The zero value is a healthy switch.
	Degraded Degraded
}

// SelfTestFaults are deliberate defects the validation harness can
// inject to prove its detectors fire. Each knob breaks one discipline
// the paper relies on — unlike the operational failures in Degraded,
// which the switch is expected to survive without breaking any
// invariant.
type SelfTestFaults struct {
	// FixedGroup disables the staggered bank interleaving: every frame
	// is written to (and read from) bank group 0 instead of group
	// n mod (L/γ), recreating the bank-conflict pathology PFI exists to
	// avoid. Detected structurally by the bank-residency invariant and
	// behaviourally by throughput collapse.
	FixedGroup bool
}

// Degraded lists the operational component failures a switch routes
// around (the resilience degraded-mode policies): placement excludes
// dead bank groups under a remapped n mod (L'/γ) residency rule, and
// the staggered interleaver re-stripes frames over the surviving HBM
// channels at proportionally reduced memory bandwidth.
type Degraded struct {
	// DeadGroups are bank interleaving group indices (0..L/γ-1)
	// excluded from frame placement. Buffer capacity shrinks by L'/L.
	DeadGroups []int
	// DeadChannels are HBM channel indices (0..T-1) excluded from
	// frame striping. Memory bandwidth shrinks by ~T'/T; an
	// under-provisioned memory path backlogs in the HBM rather than
	// corrupting order or conservation.
	DeadChannels []int
}

// Any reports whether any component failure is configured.
func (d Degraded) Any() bool {
	return len(d.DeadGroups) > 0 || len(d.DeadChannels) > 0
}

// Reference returns the paper's reference HBM switch: N=16 ports of
// 2.56 Tb/s, 4 HBM4 stacks, PFI at k=4 KB, K=512 KB, γ=4, S=1 KB.
func Reference() Config {
	return Config{
		PFI:          core.Reference(),
		Geometry:     hbm.HBM4Geometry(4),
		Timing:       hbm.HBM4Timing(),
		PortRate:     2560 * sim.Gbps,
		Speedup:      1.0,
		Policy:       core.Policy{PadFrames: true, BypassHBM: true},
		FlushTimeout: 0,
		PadTimeout:   2 * sim.Microsecond,
		Subchannels:  64,
	}
}

// Scaled returns a proportionally shrunk switch for fast experiments:
// the port count stays N but rates and memory shrink by the given
// factor. The PFI structure (γ, S, batch and frame sizes) is
// preserved, so all algorithmic behaviour is identical.
func Scaled(stacks int, portRate sim.Rate) Config {
	cfg := Reference()
	cfg.Geometry = hbm.HBM4Geometry(stacks)
	cfg.PFI.Channels = cfg.Geometry.Channels()
	cfg.PortRate = portRate
	return cfg
}

// Validate checks cross-parameter consistency.
func (c Config) Validate() error {
	if err := c.PFI.Validate(); err != nil {
		return err
	}
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if err := c.Timing.Validate(); err != nil {
		return err
	}
	if c.Geometry.Channels() != c.PFI.Channels {
		return fmt.Errorf("hbmswitch: PFI expects T=%d, geometry has %d channels",
			c.PFI.Channels, c.Geometry.Channels())
	}
	if c.Geometry.BanksPerChannel != c.PFI.Banks {
		return fmt.Errorf("hbmswitch: PFI expects L=%d, geometry has %d banks",
			c.PFI.Banks, c.Geometry.BanksPerChannel)
	}
	if c.Geometry.RowBytes != c.PFI.RowBytes {
		return fmt.Errorf("hbmswitch: PFI expects %d B rows, geometry has %d",
			c.PFI.RowBytes, c.Geometry.RowBytes)
	}
	if c.PortRate <= 0 {
		return fmt.Errorf("hbmswitch: non-positive port rate")
	}
	if c.Speedup <= 0 {
		return fmt.Errorf("hbmswitch: non-positive speedup")
	}
	if c.HashedEgress && c.Subchannels <= 0 {
		return fmt.Errorf("hbmswitch: hashed egress needs positive subchannel count")
	}
	if c.DynamicPages > 0 {
		align := int64(c.PFI.Groups() * c.PFI.SegmentsPerRow())
		if c.DynamicPages%align != 0 {
			return fmt.Errorf("hbmswitch: dynamic page size %d not a multiple of groups*segments-per-row = %d",
				c.DynamicPages, align)
		}
		if len(c.Degraded.DeadGroups) > 0 {
			return fmt.Errorf("hbmswitch: dead bank groups are not supported with dynamic page allocation")
		}
	}
	if err := c.Degraded.validate(c.PFI.Groups(), c.PFI.Channels); err != nil {
		return err
	}
	// The memory must be able to absorb at least the write bandwidth:
	// peak must cover 2x the aggregate port rate for full-throughput
	// store-and-forward switching (§3.1 Challenge 5). A switch with
	// dead channels is deliberately under-provisioned — that IS the
	// degraded mode — so the floor only applies when healthy.
	if len(c.Degraded.DeadChannels) == 0 {
		need := 2 * float64(c.PortRate) * float64(c.PFI.N)
		have := float64(c.Geometry.PeakRate()) * c.Speedup
		if have < need*0.97 { // allow the ~2% transition allowance of §4
			return fmt.Errorf("hbmswitch: HBM peak %v (x%.2f speedup) cannot carry 2x aggregate %v",
				c.Geometry.PeakRate(), c.Speedup, sim.Rate(need))
		}
	}
	return nil
}

// validate checks the failure lists against the memory organization:
// indices in range, no duplicates, and at least one surviving group
// and channel.
func (d Degraded) validate(groups, channels int) error {
	if err := checkDead("bank group", d.DeadGroups, groups); err != nil {
		return err
	}
	return checkDead("channel", d.DeadChannels, channels)
}

func checkDead(what string, dead []int, total int) error {
	seen := make(map[int]bool, len(dead))
	for _, i := range dead {
		if i < 0 || i >= total {
			return fmt.Errorf("hbmswitch: dead %s %d out of range [0,%d)", what, i, total)
		}
		if seen[i] {
			return fmt.Errorf("hbmswitch: dead %s %d listed twice", what, i)
		}
		seen[i] = true
	}
	if len(dead) >= total {
		return fmt.Errorf("hbmswitch: all %d %ss dead", total, what)
	}
	return nil
}

// EffectiveGeometry returns the geometry with the speedup applied to
// the pin rate.
func (c Config) EffectiveGeometry() hbm.Geometry {
	g := c.Geometry
	g.PinRate = sim.Rate(float64(g.PinRate) * c.Speedup)
	return g
}

// BatchTime returns the time one batch occupies a port at rate P.
func (c Config) BatchTime() sim.Time {
	return sim.TransferTime(int64(c.PFI.BatchBytes)*8, c.PortRate)
}

// MinSpeedupFor returns the HBM speedup needed to carry the given
// offered load through the memory path: the pins must cover 2x the
// aggregate line traffic plus the write/read phase-transition
// overhead (two turnarounds per W+R cycle, §4's ~2%).
func (c Config) MinSpeedupFor(load float64) float64 {
	segTime := sim.TransferTime(int64(c.PFI.SegBytes)*8, c.Geometry.ChannelRate())
	frameTime := sim.Time(c.PFI.Gamma) * segTime
	cycle := 2*frameTime + c.Timing.TWTR + c.Timing.TRTW
	transitionFactor := float64(cycle) / float64(2*frameTime)
	need := 2 * load * float64(c.PortRate) * float64(c.PFI.N) * transitionFactor
	return need / float64(c.Geometry.PeakRate())
}
