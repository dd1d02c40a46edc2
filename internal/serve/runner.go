package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"

	"pbrouter/internal/hbmswitch"
	"pbrouter/internal/parallel"
	"pbrouter/internal/sim"
	"pbrouter/internal/telemetry"
	"pbrouter/internal/validate"
	"pbrouter/router"
)

// validateChunk is the checkpoint-unit size of a validation sweep:
// one unit is this many consecutive cases. It must never change for
// existing checkpoints to resume, and it does not affect results —
// cases are self-contained and assembled in index order.
const validateChunk = 16

// FoundError reports that a job ran to completion and produced a full
// result, but the run found violations or failures. The job lands in
// state failed with the result attached, mirroring the CLI twin's
// exit code 1 next to complete output.
type FoundError struct {
	N    int
	What string
}

func (e *FoundError) Error() string { return fmt.Sprintf("%d %s", e.N, e.What) }

// runEnv is what a job run gets from the worker: previously
// checkpointed units to replay, a sink for newly completed units, a
// stream to publish events to, sinks for in-memory run artifacts
// (telemetry series per sweep point, the packet-lifecycle trace), the
// job's structured logger, and the per-job parallelism.
type runEnv struct {
	id         string
	workers    int
	units      []json.RawMessage
	saveUnit   func(json.RawMessage)
	saveSeries func(point int, s telemetry.Series)
	saveTrace  func([]byte)
	emit       func(v any)
	log        *slog.Logger
}

// runSpec executes the job and returns its result JSON — byte-
// identical to the equivalent CLI run at the same seed, including
// when the returned error is a *FoundError. It replays the
// checkpointed units in env, runs each missing unit through runUnit
// (the code the fleet's /units handler calls), checkpoints it unless
// the kind is atomic, and assembles the result with AssembleUnits.
func runSpec(ctx context.Context, spec Spec, env runEnv) ([]byte, error) {
	d, err := kindOf(spec.Kind)
	if err != nil {
		return nil, err
	}
	n := spec.UnitCount()
	have := min(len(env.units), n)
	units := env.units[:have:have]
	for u := have; u < n; u++ {
		raw, err := runUnit(ctx, spec, u, env)
		if err != nil {
			return nil, err
		}
		units = append(units, raw)
		if d.units != nil && env.saveUnit != nil { // atomic kinds store no units
			env.saveUnit(raw)
		}
		if d.done != nil {
			env.emit(d.done(spec, env.id, u))
		}
	}
	return AssembleUnits(spec, units)
}

// runSim runs one packet-level switch simulation. The job is atomic
// (one unit): cancellation is honored before the run starts, and the
// report serializes through hbmswitch.Report.WriteJSON — the same
// writer behind spssim -json. A telemetry registry is attached purely
// to stream samples, and the tracer only when env keeps the trace;
// instrumentation does not change results (the switch's own tests
// pin that invariant).
func runSim(ctx context.Context, spec *SimSpec, env runEnv) ([]byte, error) {
	cfg := spec.Config()
	sw, err := hbmswitch.New(cfg)
	if err != nil {
		return nil, err
	}
	var tracer *telemetry.Tracer
	if spec.TraceSample > 0 && env.saveTrace != nil {
		if tracer, err = telemetry.NewTracer(spec.TraceSample); err != nil {
			return nil, err
		}
	}
	reg, err := telemetry.New(sim.Microsecond)
	if err == nil {
		sent := false
		reg.SetOnSample(func(now sim.Time, names []string, row []float64) {
			if !sent {
				env.emit(probesEvent{Job: env.id, Event: "probes", Names: names})
				sent = true
			}
			env.emit(sampleEvent{Job: env.id, Event: "sample", TimePs: now, Values: append([]float64(nil), row...)})
		})
		sw.Instrument(reg, tracer, "", 0)
		if spec.CoreProbes {
			// Opt-in: extra columns would change the default series
			// shape, which existing consumers pin byte-for-byte.
			sw.InstrumentCore(reg, "")
		}
	}
	stream, err := spec.NewStream(cfg)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rep, err := sw.Run(stream, spec.HorizonPs)
	if err != nil {
		return nil, err
	}
	if reg != nil && env.saveSeries != nil {
		env.saveSeries(0, reg.Series())
	}
	if tracer != nil {
		var tbuf bytes.Buffer
		if err := tracer.WriteJSON(&tbuf); err != nil {
			return nil, fmt.Errorf("serve: render trace: %w", err)
		}
		env.saveTrace(tbuf.Bytes())
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// assembleSim returns the sim unit — the report JSON — as the result,
// recovering the invariant-violation verdict from its errors list.
func assembleSim(_ Spec, units []json.RawMessage) ([]byte, error) {
	var rep struct {
		Errors []string `json:"errors"`
	}
	if err := json.Unmarshal(units[0], &rep); err != nil {
		return nil, fmt.Errorf("serve: assemble sim: corrupt unit payload: %w", err)
	}
	if len(rep.Errors) > 0 {
		return units[0], &FoundError{N: len(rep.Errors), What: "invariant violations"}
	}
	return units[0], nil
}

// runSweep runs one registered experiment — the same entry point as
// spsbench, with the daemon's context and progress stream wired into
// the sweep engine. Atomic: a cancelled sweep reruns from the spec.
func runSweep(ctx context.Context, spec *SweepSpec, env runEnv) ([]byte, error) {
	res, err := router.RunExperiment(spec.Experiment, router.Options{
		Quick:       spec.Quick,
		Seed:        spec.Seed,
		Reps:        spec.Reps,
		Parallelism: env.workers,
		Ctx:         ctx,
		Progress: func(done, total int) {
			env.emit(progressEvent{Job: env.id, Event: "progress", Done: done, Total: total})
		},
	})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf, spec.Experiment); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// validateRange returns the case range [lo, hi) of validate unit u.
func validateRange(cases, u int) (lo, hi int) {
	lo = u * validateChunk
	return lo, min(lo+validateChunk, cases)
}

// runValidateUnit runs validate unit u — validateChunk consecutive
// self-contained cases — and returns the outcomes in index order.
func runValidateUnit(ctx context.Context, s Spec, u int, env runEnv) (json.RawMessage, error) {
	opts := s.Validate.Options(env.workers)
	lo, hi := validateRange(opts.Cases, u)
	chunk, err := parallel.MapCtx(ctx, parallel.Workers(opts.Workers), hi-lo,
		func(i int) (validate.CaseOutcome, error) {
			return validate.RunCase(opts, lo+i), nil
		})
	if err != nil {
		return nil, err
	}
	return json.Marshal(chunk)
}

// assembleValidate serializes the sweep result from the complete
// outcome list, mirroring spsvalidate's exit semantics: failing cases
// make the job fail with the full result attached.
func assembleValidate(s Spec, units []json.RawMessage) ([]byte, error) {
	chunks, err := decodeUnits[[]validate.CaseOutcome](KindValidate, units)
	if err != nil {
		return nil, err
	}
	var outcomes []validate.CaseOutcome
	for _, c := range chunks {
		outcomes = append(outcomes, c...)
	}
	res := validate.Assemble(s.Validate.Options(0), outcomes)
	return writeResult(res.WriteJSON, res.Failures, "failing cases")
}
