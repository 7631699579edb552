// Package sim provides the discrete-event simulation kernel used by every
// experiment in this repository. It models virtual time, an ordered event
// queue, and deterministic random-number streams so that simulation runs are
// reproducible bit-for-bit given a seed.
package sim

import (
	"fmt"
	"time"
)

// Time is a virtual instant, expressed as the offset from the start of the
// simulation. The zero Time is the simulation epoch.
type Time time.Duration

// Common virtual-time units, mirroring the time package for readability at
// call sites (Seconds(30), 45*sim.Minute, ...).
const (
	Nanosecond  Time = Time(time.Nanosecond)
	Microsecond Time = Time(time.Microsecond)
	Millisecond Time = Time(time.Millisecond)
	Second      Time = Time(time.Second)
	Minute      Time = Time(time.Minute)
	Hour        Time = Time(time.Hour)
)

// Seconds converts a floating-point number of seconds to a Time.
func Seconds(s float64) Time {
	return Time(time.Duration(s * float64(time.Second)))
}

// SecondsOf reports t as a floating-point number of seconds.
func SecondsOf(t Time) float64 {
	return time.Duration(t).Seconds()
}

// Duration converts the virtual instant to the duration elapsed since the
// simulation epoch.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Add returns the instant d after t.
func (t Time) Add(d Time) Time { return t + d }

// Sub returns the elapsed virtual time from u to t.
func (t Time) Sub(u Time) Time { return t - u }

// String formats the instant using time.Duration notation ("1h30m0s").
func (t Time) String() string { return time.Duration(t).String() }

// GoString implements fmt.GoStringer for clearer test failure output.
func (t Time) GoString() string {
	return fmt.Sprintf("sim.Time(%s)", time.Duration(t))
}
