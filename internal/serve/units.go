package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
)

// Unit extraction: every job decomposes into UnitCount independent,
// self-contained units — the exact granularity the daemon checkpoints
// at (validate: 16-case chunks, the point sweeps: one per point; sim
// and sweep are atomic, one unit). RunUnit executes one unit anywhere
// (any worker count, any process, any machine) and AssembleUnits
// rebuilds the job result from the complete unit set through the same
// serializers the CLIs use. The daemon's own runSpec is this pair run
// in one process, so a sharded run is byte-identical to a single-node
// run at the same seed. The fleet coordinator (internal/fleet) is
// built on the same pair.

// RunUnit executes unit u of the spec and returns its raw checkpoint
// payload: a []validate.CaseOutcome chunk for validate jobs, the
// sweep point for the point-sweep kinds, and the full result JSON for
// the atomic kinds (sim, sweep; their only unit is 0). The spec must
// be normalized and checked. Units depend only on (spec, u): payloads
// are identical wherever and however often they run.
func RunUnit(ctx context.Context, spec Spec, u, workers int) (json.RawMessage, error) {
	return runUnit(ctx, spec, u, runEnv{id: "unit", workers: workers, emit: func(any) {}})
}

// runUnit runs unit u through its kind's table entry, publishing
// through env.
func runUnit(ctx context.Context, spec Spec, u int, env runEnv) (json.RawMessage, error) {
	d, err := kindOf(spec.Kind)
	if err != nil {
		return nil, err
	}
	if n := spec.UnitCount(); u < 0 || u >= n {
		return nil, fmt.Errorf("serve: unit %d out of range 0..%d", u, n-1)
	}
	return d.run(ctx, spec, u, env)
}

// AssembleUnits rebuilds the job result from the raw payloads of
// units 0..UnitCount-1, in unit order, through the CLI serializers
// (validate.Assemble, each sweep config's Assemble, the report
// writers). It returns a *FoundError next to the complete result when
// the run itself found violations or failures.
func AssembleUnits(spec Spec, units []json.RawMessage) ([]byte, error) {
	d, err := kindOf(spec.Kind)
	if err != nil {
		return nil, err
	}
	if got, want := len(units), spec.UnitCount(); got != want {
		return nil, fmt.Errorf("serve: assemble %s: have %d units, want %d", spec.Kind, got, want)
	}
	return d.assemble(spec, units)
}

// decodeUnits decodes checkpointed unit payloads of type P.
func decodeUnits[P any](kind Kind, units []json.RawMessage) ([]P, error) {
	out := make([]P, len(units))
	for i, u := range units {
		if err := json.Unmarshal(u, &out[i]); err != nil {
			return nil, fmt.Errorf("serve: corrupt %s checkpoint unit: %w", kind, err)
		}
	}
	return out, nil
}

// writeResult serializes a result through its CLI writer, mirroring
// the CLI's exit semantics: n found violations or failures fail the
// job with the full result attached.
func writeResult(write func(io.Writer) error, n int, what string) ([]byte, error) {
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return nil, err
	}
	if n > 0 {
		return buf.Bytes(), &FoundError{N: n, What: what}
	}
	return buf.Bytes(), nil
}
