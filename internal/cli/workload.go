package cli

import (
	"fmt"
	"strings"

	"pbrouter/internal/workload"
)

// WorkloadFlags holds the realistic-workload flag values shared by
// trafficgen, spssim, and spsarch, so the three tools validate the
// same knobs with the same error wording.
type WorkloadFlags struct {
	Kind        string  // -workload: one of workload.Kinds()
	FlowDist    string  // -flow-dist: pareto|lognormal (heavytail)
	TailAlpha   float64 // -tail: Pareto tail index
	BurstRatio  float64 // -burst-ratio: on/off peak over mean load
	ReplayPath  string  // -replay: trace file path (cmd/trafficgen's binary format)
	ReplayScale float64 // -replay-scale: time-compression factor (0 = rescale to -load)
}

// ValidateTailAlpha checks a -tail flag: the bounded-Pareto tail index
// must have a finite mean (alpha > 1); above 5 the tail is lighter
// than exponential in practice, which defeats the flag's purpose.
func ValidateTailAlpha(a float64) error {
	if a <= 1 || a > 5 {
		return fmt.Errorf("-tail %g: tail index must be in (1, 5]", a)
	}
	return nil
}

// ValidateBurstRatio checks a -burst-ratio flag: peak over mean load,
// so 1 is plain Poisson and anything below is meaningless.
func ValidateBurstRatio(r float64) error {
	if r < 1 {
		return fmt.Errorf("-burst-ratio %g: peak/mean load must be >= 1", r)
	}
	return nil
}

// ValidateReplay checks the -workload / -replay pairing: the replay
// workload needs a trace, and a trace without the replay workload is
// silently ignored — almost certainly a mistake.
func ValidateReplay(kind, path string) error {
	if kind == workload.KindReplay && path == "" {
		return fmt.Errorf("-workload replay needs -replay <file.trace>")
	}
	if kind != workload.KindReplay && path != "" {
		return fmt.Errorf("-replay is only meaningful with -workload replay (got -workload %s)", kind)
	}
	return nil
}

// Validate checks the whole flag set. The zero value of an unset flag
// is skipped (Config applies the generator defaults).
func (w WorkloadFlags) Validate() error {
	kinds := workload.Kinds()
	found := false
	for _, k := range kinds {
		if w.Kind == k {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("-workload %q: unknown kind (%s)", w.Kind, strings.Join(kinds, "|"))
	}
	if w.FlowDist != "" && w.FlowDist != "pareto" && w.FlowDist != "lognormal" {
		return fmt.Errorf("-flow-dist %q: unknown distribution (pareto|lognormal)", w.FlowDist)
	}
	if w.TailAlpha != 0 {
		if err := ValidateTailAlpha(w.TailAlpha); err != nil {
			return err
		}
	}
	if w.BurstRatio != 0 {
		if err := ValidateBurstRatio(w.BurstRatio); err != nil {
			return err
		}
	}
	if w.ReplayScale < 0 {
		return fmt.Errorf("-replay-scale %g: must not be negative (0 = rescale to -load)", w.ReplayScale)
	}
	return ValidateReplay(w.Kind, w.ReplayPath)
}

// Config maps the flag set onto a workload generator configuration.
func (w WorkloadFlags) Config() workload.Config {
	return workload.Config{
		Kind:        w.Kind,
		FlowDist:    w.FlowDist,
		TailAlpha:   w.TailAlpha,
		BurstRatio:  w.BurstRatio,
		ReplayPath:  w.ReplayPath,
		ReplayScale: w.ReplayScale,
	}
}
