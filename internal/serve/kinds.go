package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"pbrouter/internal/arch"
	"pbrouter/internal/resilience"
	"pbrouter/internal/splitpolicy"
	"pbrouter/internal/telemetry"
)

// kindDef declares one job kind. Every job runs as UnitCount
// independent units — the granularity of the daemon's checkpoints and
// of the fleet's dispatch alike — and its result is assembled from the
// complete unit list. The daemon (runSpec), a resumed job and the
// fleet's /units dispatch all go through run and assemble, so they
// produce identical bytes by construction. Adding a kind is one entry
// in kindTable plus the package that implements it.
type kindDef struct {
	kind Kind
	// spec returns the kind's sub-spec in s, allocating it when absent.
	spec func(s *Spec) subSpec
	// units returns a normalized spec's unit count. Nil marks an atomic
	// kind: one unit whose payload is the result itself, which the
	// daemon never checkpoints (a cancelled run reruns from the spec).
	units func(s Spec) int
	// run executes unit u and returns its payload, publishing samples,
	// progress and series through env.
	run func(ctx context.Context, s Spec, u int, env runEnv) (json.RawMessage, error)
	// done, when set, returns the stream event published once unit u is
	// saved.
	done func(s Spec, id string, u int) any
	// assemble builds the result JSON from the complete payload list,
	// with a *FoundError when the run found violations or failures.
	assemble func(s Spec, units []json.RawMessage) ([]byte, error)
}

// subSpec is a kind's parameter block.
type subSpec interface {
	Normalize()
	Check() error
}

// kindTable declares every job kind, in the order Kinds lists them.
var kindTable = []kindDef{
	{
		kind: KindSim,
		spec: func(s *Spec) subSpec { return alloc(&s.Sim) },
		run: func(ctx context.Context, s Spec, _ int, env runEnv) (json.RawMessage, error) {
			return runSim(ctx, s.Sim, env)
		},
		assemble: assembleSim,
	},
	{
		kind: KindSweep,
		spec: func(s *Spec) subSpec { return alloc(&s.Sweep) },
		run: func(ctx context.Context, s Spec, _ int, env runEnv) (json.RawMessage, error) {
			return runSweep(ctx, s.Sweep, env)
		},
		assemble: func(_ Spec, units []json.RawMessage) ([]byte, error) { return units[0], nil },
	},
	{
		kind:  KindValidate,
		spec:  func(s *Spec) subSpec { return alloc(&s.Validate) },
		units: func(s Spec) int { return (s.Validate.Cases + validateChunk - 1) / validateChunk },
		run:   runValidateUnit,
		done: func(s Spec, id string, u int) any {
			_, hi := validateRange(s.Validate.Cases, u)
			return progressEvent{Job: id, Event: "progress", Done: hi, Total: s.Validate.Cases}
		},
		assemble: assembleValidate,
	},
	sweepKind(KindResilience, func(s *Spec) **resilience.SweepConfig { return &s.Resilience },
		func(ctx context.Context, c resilience.SweepConfig, workers, k int) (resilience.SweepPoint, telemetry.Series, error) {
			c.Workers = workers
			pt, rep, err := c.RunPoint(ctx, k)
			if err != nil {
				return pt, telemetry.Series{}, err
			}
			return pt, rep.Series, nil
		}),
	sweepKind(KindSplit, func(s *Spec) **splitpolicy.SweepConfig { return &s.Split },
		func(ctx context.Context, c splitpolicy.SweepConfig, workers, k int) (splitpolicy.SweepPoint, telemetry.Series, error) {
			c.Workers = workers
			pt, rep, err := c.RunPoint(ctx, k)
			if err != nil {
				return pt, telemetry.Series{}, err
			}
			return pt, rep.Series, nil
		}),
	sweepKind(KindArch, func(s *Spec) **arch.SweepConfig { return &s.Arch },
		func(ctx context.Context, c arch.SweepConfig, workers, k int) (arch.SweepPoint, telemetry.Series, error) {
			c.Workers = workers
			pt, rep, err := c.RunPoint(ctx, k)
			if err != nil {
				return pt, telemetry.Series{}, err
			}
			return pt, rep.Series, nil
		}),
}

// Kinds lists every job kind the daemon accepts.
func Kinds() []Kind {
	out := make([]Kind, len(kindTable))
	for i, d := range kindTable {
		out[i] = d.kind
	}
	return out
}

// kindOf returns the kind's table entry.
func kindOf(k Kind) (*kindDef, error) {
	for i := range kindTable {
		if kindTable[i].kind == k {
			return &kindTable[i], nil
		}
	}
	names := make([]string, len(kindTable))
	for i, d := range kindTable {
		names[i] = string(d.kind)
	}
	return nil, fmt.Errorf("serve: unknown job kind %q (%s)", k, strings.Join(names, "|"))
}

// alloc returns *p, allocating it first when nil.
func alloc[T any](p **T) *T {
	if *p == nil {
		*p = new(T)
	}
	return *p
}

// Normalize fills the active sub-spec (creating it if absent) with its
// CLI defaults. Inactive sub-specs are left alone and ignored.
func (s *Spec) Normalize() {
	if d, err := kindOf(s.Kind); err == nil {
		d.spec(s).Normalize()
	}
}

// Check validates the spec after Normalize.
func (s Spec) Check() error {
	d, err := kindOf(s.Kind)
	if err != nil {
		return err
	}
	return d.spec(&s).Check()
}

// UnitCount returns how many checkpoint units the job runs: resumable
// kinds report their unit count (validate: 16-case chunks, the point
// sweeps: one per point), atomic kinds one. Units are the granularity
// both of the daemon's mid-job checkpoints and of the fleet
// coordinator's dispatch (see RunUnit).
func (s Spec) UnitCount() int {
	if d, err := kindOf(s.Kind); err == nil && d.units != nil {
		return d.units(s)
	}
	return 1
}

// pointSweep is what the resilience, splitpolicy and arch sweep configs
// share, each with its own point type P.
type pointSweep[P any] interface {
	NumPoints() int
	Assemble(points []P) (telemetry.Series, int)
}

// sweepKind declares a point-sweep kind: one unit per sweep point, in
// the CLI's order, each computed by point. A unit publishes its
// per-epoch series (the probe names once, before point 0's samples)
// and keeps it as the point's series artifact. The result is the
// assembled table serialized through telemetry.Series.WriteJSON, the
// writer behind the CLI's -json; violations are only counted with
// validation on, so any count fails the job.
func sweepKind[P any, C pointSweep[P], PC interface {
	*C
	subSpec
}](kind Kind, field func(*Spec) **C, point func(ctx context.Context, c C, workers, k int) (P, telemetry.Series, error)) kindDef {
	cfg := func(s Spec) C { return **field(&s) }
	return kindDef{
		kind:  kind,
		spec:  func(s *Spec) subSpec { return PC(alloc(field(s))) },
		units: func(s Spec) int { return cfg(s).NumPoints() },
		run: func(ctx context.Context, s Spec, k int, env runEnv) (json.RawMessage, error) {
			pt, series, err := point(ctx, cfg(s), env.workers, k)
			if err != nil {
				return nil, err
			}
			if k == 0 {
				env.emit(probesEvent{Job: env.id, Event: "probes", Names: series.Names})
			}
			for i, t := range series.Times {
				env.emit(sampleEvent{Job: env.id, Event: "sample", Point: k, TimePs: t, Values: series.Rows[i]})
			}
			if env.saveSeries != nil {
				env.saveSeries(k, series)
			}
			return json.Marshal(pt)
		},
		done: func(s Spec, id string, k int) any {
			return unitEvent{Job: id, Event: "unit", Unit: k + 1, Of: cfg(s).NumPoints()}
		},
		assemble: func(s Spec, units []json.RawMessage) ([]byte, error) {
			pts, err := decodeUnits[P](kind, units)
			if err != nil {
				return nil, err
			}
			table, violations := cfg(s).Assemble(pts)
			return writeResult(table.WriteJSON, violations, "invariant violations")
		},
	}
}
