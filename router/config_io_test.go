package router

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestConfigJSONRoundTrip(t *testing.T) {
	orig := Reference()
	orig.Switch.Speedup = 1.07
	orig.Switch.Policy = PFIPolicy{PadFrames: true}
	orig.Switch.DynamicPages = 32
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadConfig(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Fatalf("round trip diverged:\norig: %+v\ngot:  %+v", orig, got)
	}
}

func TestLoadConfigRejectsInvalid(t *testing.T) {
	// Valid JSON, inconsistent design (port-rate mismatch).
	bad := Reference()
	bad.Switch.PortRate = Tbps
	var buf bytes.Buffer
	if err := bad.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadConfig(&buf); err == nil {
		t.Fatal("invalid config loaded")
	}
	// Garbage JSON.
	if _, err := LoadConfig(strings.NewReader("{nope")); err == nil {
		t.Fatal("garbage loaded")
	}
	// Unknown fields rejected (typo protection).
	if _, err := LoadConfig(strings.NewReader(`{"Bogus": 1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	// A config saved while the switch still had an event-queue option
	// fails to load cleanly rather than being half-applied.
	if _, err := LoadConfig(strings.NewReader(`{"Switch": {"Sched": 1}}`)); err == nil || !strings.Contains(err.Error(), "Sched") {
		t.Fatalf("config with a Sched key: err = %v, want an unknown-field error", err)
	}
}
