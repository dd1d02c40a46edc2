// Package sim provides a small deterministic discrete-event simulation
// kernel used by every simulator in this repository: an integer
// picosecond clock, an event queue, and a reproducible random number
// generator.
//
// Time is kept in integer picoseconds so that the reference design's
// quantities are exact: at 1 Tb/s one bit lasts exactly one picosecond,
// so a 4 KB batch at the 2.56 Tb/s port rate lasts exactly 12 800 ps.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in simulated time, in integer picoseconds.
type Time int64

// Duration constants in picoseconds.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * 1000
	Millisecond Time = 1000 * 1000 * 1000
	Second      Time = 1000 * 1000 * 1000 * 1000
)

// Forever is a time later than any event a simulation will schedule.
const Forever Time = math.MaxInt64 / 4

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Nanoseconds converts t to floating-point nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t == math.MinInt64: // -t overflows back to t
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t < 0:
		return fmt.Sprintf("-%v", -t)
	case t < 10*Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < 10*Microsecond:
		return fmt.Sprintf("%.3fns", t.Nanoseconds())
	case t < 10*Millisecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.3fs", t.Seconds())
	}
}

// Rate is a data rate in bits per second. It is a float64 so that rates
// like 2.56 Tb/s and 40 Gb/s compose without overflow, but all derived
// times are rounded to integer picoseconds once.
type Rate float64

// Convenient rate units.
const (
	BitPerSecond Rate = 1
	Kbps         Rate = 1e3
	Mbps         Rate = 1e6
	Gbps         Rate = 1e9
	Tbps         Rate = 1e12
)

// Gb returns the rate in gigabits per second.
func (r Rate) Gb() float64 { return float64(r) / 1e9 }

// Tb returns the rate in terabits per second.
func (r Rate) Tb() float64 { return float64(r) / 1e12 }

// String formats the rate with an adaptive unit.
func (r Rate) String() string {
	switch {
	case r >= Tbps:
		return fmt.Sprintf("%.2fTb/s", r.Tb())
	case r >= Gbps:
		return fmt.Sprintf("%.2fGb/s", r.Gb())
	case r >= Mbps:
		return fmt.Sprintf("%.2fMb/s", float64(r)/1e6)
	default:
		return fmt.Sprintf("%.0fb/s", float64(r))
	}
}

// TransferTime returns the time needed to move the given number of bits
// at rate r, rounded up to a whole picosecond. It panics on a
// non-positive rate, which always indicates a configuration bug.
func TransferTime(bits int64, r Rate) Time {
	if r <= 0 {
		panic(fmt.Sprintf("sim: non-positive rate %v", r))
	}
	ps := float64(bits) * 1e12 / float64(r)
	return Time(math.Ceil(ps - 1e-9))
}

// BitsIn returns how many bits rate r delivers in duration d.
func BitsIn(d Time, r Rate) float64 {
	return float64(r) * d.Seconds()
}

// RateOf returns the average rate of moving the given number of bits
// over duration d. It returns 0 for a non-positive duration.
func RateOf(bits int64, d Time) Rate {
	if d <= 0 {
		return 0
	}
	return Rate(float64(bits) / d.Seconds())
}
