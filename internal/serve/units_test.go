package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"pbrouter/internal/arch"
	"pbrouter/internal/resilience"
	"pbrouter/internal/sim"
	"pbrouter/internal/splitpolicy"
	"pbrouter/internal/workload"
)

// unitTestSpecs is one quick spec per job kind, multi-unit where the
// kind supports it.
func unitTestSpecs() map[string]Spec {
	return map[string]Spec{
		"sim": {Kind: KindSim, Sim: &SimSpec{
			Load: 0.5, HorizonPs: 2 * sim.Microsecond, Seed: 3,
		}},
		"sweep": {Kind: KindSweep, Sweep: &SweepSpec{
			Experiment: "E1", Quick: true, Seed: 1,
		}},
		"validate": {Kind: KindValidate, Validate: &ValidateSpec{
			Seed: 2, Cases: 20, HorizonUs: 1,
		}},
		"resilience": {Kind: KindResilience, Resilience: &resilience.SweepConfig{
			Mode: resilience.ModeFailedSwitches, MaxFailed: 2,
			HorizonPs: 5 * sim.Microsecond, Seed: 5,
		}},
		"split": {Kind: KindSplit, Split: &splitpolicy.SweepConfig{
			Policies:  []string{splitpolicy.PolicyStatic, splitpolicy.PolicyLeastLoaded},
			Workloads: []string{splitpolicy.WorkloadAdversarial},
			N:         4, F: 8, H: 4,
			HorizonPs: 4 * sim.Microsecond, Epochs: 2, Seed: 5,
		}},
		"arch": {Kind: KindArch, Arch: &arch.SweepConfig{
			Archs:     []string{arch.ArchOQ, arch.ArchCQ},
			Workloads: []string{workload.KindUniform},
			N:         4, HorizonPs: 4 * sim.Microsecond, Seed: 5,
		}},
	}
}

// TestRunUnitAssembleMatchesRunSpec pins the unit-extraction
// contract: running every unit separately and assembling them yields
// the exact bytes of an uninterrupted runSpec at the same seed, for
// every kind.
func TestRunUnitAssembleMatchesRunSpec(t *testing.T) {
	for name, spec := range unitTestSpecs() {
		spec := spec
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec.Normalize()
			if err := spec.Check(); err != nil {
				t.Fatal(err)
			}
			want, err := runSpec(context.Background(), spec,
				runEnv{id: "ref", emit: func(any) {}})
			if err != nil {
				t.Fatal(err)
			}
			n := spec.UnitCount()
			if name == "validate" && n != 2 {
				t.Fatalf("validate spec has %d units, want 2", n)
			}
			if name == "resilience" && n != 3 {
				t.Fatalf("resilience spec has %d units, want 3", n)
			}
			if name == "split" && n != 2 {
				t.Fatalf("split spec has %d units, want 2", n)
			}
			if name == "arch" && n != 2 {
				t.Fatalf("arch spec has %d units, want 2", n)
			}
			units := make([]json.RawMessage, n)
			for u := 0; u < n; u++ {
				payload, err := RunUnit(context.Background(), spec, u, 0)
				if err != nil {
					t.Fatalf("unit %d: %v", u, err)
				}
				units[u] = payload
			}
			got, err := AssembleUnits(spec, units)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("assembled units differ from runSpec result\n got: %.200s\nwant: %.200s", got, want)
			}
		})
	}
}

// TestRunUnitWorkerIndependent pins that a unit's payload does not
// depend on the worker count it ran with.
func TestRunUnitWorkerIndependent(t *testing.T) {
	spec := unitTestSpecs()["validate"]
	spec.Normalize()
	a, err := RunUnit(context.Background(), spec, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunUnit(context.Background(), spec, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("unit payload depends on worker count")
	}
}

// TestAssembleUnitsRederivesFoundError pins that assembly reproduces
// the daemon's failed-with-result semantics from unit payloads alone.
func TestAssembleUnitsRederivesFoundError(t *testing.T) {
	spec := Spec{Kind: KindValidate, Validate: &ValidateSpec{
		Seed: 1, Cases: 3, Fault: "fixed-group",
	}}
	f := false
	spec.Validate.Shrink = &f
	spec.Normalize()
	payload, err := RunUnit(context.Background(), spec, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := AssembleUnits(spec, []json.RawMessage{payload})
	var found *FoundError
	if !errors.As(err, &found) {
		t.Fatalf("want *FoundError from a starved validate sweep, got %v", err)
	}
	if len(res) == 0 {
		t.Error("FoundError must come with the full result attached")
	}
}

// TestUnitsEndpoint round-trips units over the wire: FetchUnit against
// a real handler returns the same payload as a local RunUnit, and the
// assembled job matches the daemon's own run of the same spec.
func TestUnitsEndpoint(t *testing.T) {
	srv, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Drain(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	hc := &http.Client{}

	spec := unitTestSpecs()["resilience"]
	spec.Normalize()
	if err := spec.Check(); err != nil {
		t.Fatal(err)
	}
	n := spec.UnitCount()
	units := make([]json.RawMessage, n)
	for u := 0; u < n; u++ {
		remote, err := FetchUnit(context.Background(), hc, ts.URL, spec, u, 10*time.Second)
		if err != nil {
			t.Fatalf("fetch unit %d: %v", u, err)
		}
		local, err := RunUnit(context.Background(), spec, u, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(remote, local) {
			t.Errorf("unit %d: remote payload differs from local run", u)
		}
		units[u] = remote
	}
	got, err := AssembleUnits(spec, units)
	if err != nil {
		t.Fatal(err)
	}
	want, err := runSpec(context.Background(), spec, runEnv{id: "ref", emit: func(any) {}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("wire-fetched units assemble to different bytes than a local run")
	}
}

// TestUnitsEndpointShortUnitsBackToBack runs many short units back
// to back over /units with a heartbeat period close to a unit's run
// time, so heartbeats race the end of each unit. Under -race, a
// heartbeat written after the handler returned is a data race on the
// ResponseWriter.
func TestUnitsEndpointShortUnitsBackToBack(t *testing.T) {
	defer func(d time.Duration) { unitHeartbeat = d }(unitHeartbeat)
	unitHeartbeat = 20 * time.Microsecond
	srv, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Drain(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	hc := &http.Client{}

	spec := Spec{Kind: KindSim, Sim: &SimSpec{Load: 0.2, HorizonPs: sim.Microsecond / 4}}
	spec.Normalize()
	want, err := RunUnit(context.Background(), spec, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		got, err := FetchUnit(context.Background(), hc, ts.URL, spec, 0, 10*time.Second)
		if err != nil {
			t.Fatalf("unit run %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("unit run %d: payload differs from a local run", i)
		}
	}
}

// TestUnitsEndpointRejects pins the endpoint's validation errors.
func TestUnitsEndpointRejects(t *testing.T) {
	srv, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Drain(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	hc := &http.Client{}

	spec := Spec{Kind: KindSim}
	spec.Normalize()
	if _, err := FetchUnit(context.Background(), hc, ts.URL, spec, 7, time.Second); err == nil {
		t.Error("out-of-range unit must be rejected")
	}
	bad := Spec{Kind: Kind("nope")}
	if _, err := FetchUnit(context.Background(), hc, ts.URL, bad, 0, time.Second); err == nil {
		t.Error("unknown kind must be rejected")
	}
}

// TestCheckpointCodecRoundTrip pins the exported spsd-checkpoint/1
// codec the daemon and the fleet coordinator share.
func TestCheckpointCodecRoundTrip(t *testing.T) {
	cp := Checkpoint{
		ID:    "j000042",
		State: StateQueued,
		Spec:  Spec{Kind: KindValidate, Validate: &ValidateSpec{Seed: 9, Cases: 20}},
		Units: []json.RawMessage{json.RawMessage(`[{"index":0,"fingerprint":"abc"}]`)},
	}
	b, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCheckpoint(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != cp.ID || got.State != cp.State || len(got.Units) != 1 {
		t.Errorf("round-trip mangled the checkpoint: %+v", got)
	}
	if got.Schema != CheckpointSchema {
		t.Errorf("schema %q, want %q", got.Schema, CheckpointSchema)
	}
	if _, err := DecodeCheckpoint([]byte(`{"schema":"spsd-checkpoint/9","id":"x"}`)); err == nil {
		t.Error("unknown schema must be rejected")
	}
	// A checkpoint written when sim specs still had a "sched" option
	// decodes: checkpoints tolerate unknown fields, unlike submissions.
	old, err := DecodeCheckpoint([]byte(`{"schema":"spsd-checkpoint/1","id":"j1","state":"queued","spec":{"kind":"sim","sim":{"sched":"heap","seed":3}}}`))
	if err != nil || old.Spec.Sim == nil || old.Spec.Sim.Seed != 3 {
		t.Errorf("old checkpoint with a sched option: %+v, %v", old, err)
	}

	dir := t.TempDir()
	if err := WriteCheckpointFile(dir, cp); err != nil {
		t.Fatal(err)
	}
	cps, err := LoadCheckpointDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 1 || cps[0].ID != cp.ID {
		t.Errorf("LoadCheckpointDir = %+v, want the one written checkpoint", cps)
	}
}
