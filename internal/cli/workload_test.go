package cli

import (
	"strings"
	"testing"
)

// TestWorkloadFlagsValidate is the shared flag-validation table for
// the three tools that take workload flags.
func TestWorkloadFlagsValidate(t *testing.T) {
	cases := []struct {
		name    string
		flags   WorkloadFlags
		wantErr string // substring; empty means valid
	}{
		{"uniform default", WorkloadFlags{Kind: "uniform"}, ""},
		{"heavytail default", WorkloadFlags{Kind: "heavytail"}, ""},
		{"heavytail tuned", WorkloadFlags{Kind: "heavytail", FlowDist: "lognormal", TailAlpha: 1.6}, ""},
		{"onoff tuned", WorkloadFlags{Kind: "onoff", BurstRatio: 8}, ""},
		{"diurnal", WorkloadFlags{Kind: "diurnal"}, ""},
		{"replay with path", WorkloadFlags{Kind: "replay", ReplayPath: "t.trace"}, ""},
		{"replay scaled", WorkloadFlags{Kind: "replay", ReplayPath: "t.trace", ReplayScale: 0.5}, ""},

		{"unknown kind", WorkloadFlags{Kind: "fractal"}, "unknown kind"},
		{"empty kind", WorkloadFlags{}, "unknown kind"},
		{"bad flow dist", WorkloadFlags{Kind: "heavytail", FlowDist: "zipf"}, "-flow-dist"},
		{"tail too light", WorkloadFlags{Kind: "heavytail", TailAlpha: 6}, "-tail"},
		{"tail infinite mean", WorkloadFlags{Kind: "heavytail", TailAlpha: 1}, "-tail"},
		{"burst below one", WorkloadFlags{Kind: "onoff", BurstRatio: 0.5}, "-burst-ratio"},
		{"replay without path", WorkloadFlags{Kind: "replay"}, "needs -replay"},
		{"path without replay", WorkloadFlags{Kind: "uniform", ReplayPath: "t.trace"}, "only meaningful"},
		{"negative scale", WorkloadFlags{Kind: "replay", ReplayPath: "t.trace", ReplayScale: -1}, "-replay-scale"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.flags.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				// A valid flag set must survive the generator's own
				// Check after defaulting.
				cfg := tc.flags.Config()
				cfg.Normalize()
				if err := cfg.Check(); err != nil {
					t.Fatalf("flags passed Validate but Config failed Check: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}
