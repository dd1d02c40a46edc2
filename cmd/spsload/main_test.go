package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pbrouter/internal/serve"
)

func TestParseKinds(t *testing.T) {
	mix, err := parseKinds("sim, sweep,validate,resilience")
	if err != nil {
		t.Fatal(err)
	}
	want := []serve.Kind{serve.KindSim, serve.KindSweep, serve.KindValidate, serve.KindResilience}
	if len(mix) != len(want) {
		t.Fatalf("got %v, want %v", mix, want)
	}
	for i := range want {
		if mix[i] != want[i] {
			t.Errorf("mix[%d] = %s, want %s", i, mix[i], want[i])
		}
	}
	if _, err := parseKinds("split,arch"); err != nil {
		t.Errorf("parseKinds rejects a declared kind: %v", err)
	}
	for _, bad := range []string{"", "simulate", "sim,,sweep"} {
		if _, err := parseKinds(bad); err == nil {
			t.Errorf("parseKinds(%q) accepted", bad)
		}
	}
}

// TestQuickSpecsAreValid pins that every kind the load generator can
// emit passes the daemon's own admission checks.
func TestQuickSpecsAreValid(t *testing.T) {
	for _, k := range serve.Kinds() {
		spec := quickSpec(k, 42)
		if spec.Kind != k {
			t.Errorf("quickSpec(%s) built kind %s", k, spec.Kind)
		}
		spec.Normalize()
		if err := spec.Check(); err != nil {
			t.Errorf("quickSpec(%s) rejected: %v", k, err)
		}
	}
}

// newDaemon runs an in-process serve.Server behind httptest so runOne
// exercises the same HTTP client path spsload uses against spsd.
func newDaemon(t *testing.T) string {
	t.Helper()
	s, err := serve.New(serve.Config{Workers: 2, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

func TestRunOneCompletesQuickJob(t *testing.T) {
	base := newDaemon(t)
	client := &http.Client{Timeout: 30 * time.Second}
	d, err := runOne(client, base, quickSpec(serve.KindSim, 7), 10*time.Millisecond, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Errorf("nonpositive latency %v", d)
	}
}

func TestRunOneReportsFailedJob(t *testing.T) {
	base := newDaemon(t)
	client := &http.Client{Timeout: 30 * time.Second}
	// A faulted validation sweep completes but finds failing cases, so
	// the job ends failed — which spsload must count as an error.
	noShrink := false
	spec := serve.Spec{Kind: serve.KindValidate, Validate: &serve.ValidateSpec{
		Seed: 1, Cases: 3, Fault: "fixed-group", Shrink: &noShrink, HorizonUs: 5,
	}}
	_, err := runOne(client, base, spec, 10*time.Millisecond, time.Minute)
	if err == nil || !strings.Contains(err.Error(), "failed") {
		t.Fatalf("want failed-job error, got %v", err)
	}
}

func TestDecodeStatusSurfacesAPIErrors(t *testing.T) {
	base := newDaemon(t)
	resp, err := http.Get(base + "/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeStatus(resp); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("want HTTP 404 error, got %v", err)
	}
}
