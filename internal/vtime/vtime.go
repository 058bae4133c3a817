// Package vtime provides virtual (simulated) time primitives used throughout
// the MANA simulation substrate.
//
// Every MPI rank in the simulation owns a Clock whose value advances only
// when modelled costs are charged against it: compute phases from workload
// models, per-message latency and serialisation time from the network
// models, kernel costs such as FS-register switches, and checkpoint I/O
// time. Messages piggyback the sender's timestamp so that receiving and
// synchronising operations can advance a receiver to the causally correct
// time (a conservative "piggyback" form of parallel discrete-event
// simulation).
//
// The package also provides the event-scheduling structures the
// coordinator runs on: EventQueue, a single time-ordered lane, and
// IslandQueues, which partitions events across per-island lanes so that
// conservative lookahead windows can be drained by parallel workers.
// Merged iteration over all lanes reproduces the single-queue pop order
// exactly, so the lane count is invisible to the simulation's outputs.
// Because no wall-clock time is ever consulted, all figures regenerated
// by the benchmark harness are deterministic.
package vtime

import (
	"fmt"
	"sync"
	"time"
)

// Time is a point in virtual time, measured in nanoseconds since the start
// of the simulated job. It is deliberately a distinct type from
// time.Duration to prevent accidental mixing of wall-clock and virtual
// quantities.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common virtual durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
)

// Seconds reports the duration as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Microseconds reports the duration as floating-point microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// Milliseconds reports the duration as floating-point milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// Std converts a virtual duration to a time.Duration of the same nominal
// length, for interoperability with formatting helpers.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// String formats the duration using the standard library's formatting.
func (d Duration) String() string { return time.Duration(d).String() }

// String formats the time as a duration offset from virtual zero.
func (t Time) String() string { return time.Duration(t).String() }

// Add returns the time advanced by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// DurationOf converts floating-point seconds to a virtual Duration.
func DurationOf(seconds float64) Duration { return Duration(seconds * float64(Second)) }

// Max returns the later of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// MaxDuration returns the larger of a and b.
func MaxDuration(a, b Duration) Duration {
	if a > b {
		return a
	}
	return b
}

// Clock is a per-rank virtual clock. It is safe for concurrent use: the
// owning rank advances it while helper goroutines (e.g. the checkpoint
// helper thread) may read it.
type Clock struct {
	mu  sync.Mutex
	now Time
}

// NewClock returns a clock positioned at the given start time.
func NewClock(start Time) *Clock {
	return &Clock{now: start}
}

// Now returns the current virtual time.
func (c *Clock) Now() Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d and returns the new time. Negative
// durations are ignored so that cost models can never move time backwards.
func (c *Clock) Advance(d Duration) Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d > 0 {
		c.now += Time(d)
	}
	return c.now
}

// AdvanceTo moves the clock forward to at least t (it never moves
// backwards) and returns the resulting time. This is the synchronisation
// primitive used when a rank must wait for a message or a collective whose
// completion time is t.
func (c *Clock) AdvanceTo(t Time) Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.now {
		c.now = t
	}
	return c.now
}

// Set forcibly positions the clock, used when restoring a rank from a
// checkpoint image.
func (c *Clock) Set(t Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = t
}

// Stamp is a virtual timestamp piggybacked onto a simulated network
// message: the sender's rank and clock value at the moment the message
// left. Receivers use it to advance causally (a conservative
// piggyback-synchronisation scheme, so simulated time never runs
// backwards across a happens-before edge).
type Stamp struct {
	Rank int
	When Time
}

// StampFrom captures a piggyback stamp from the given clock.
func StampFrom(rank int, c *Clock) Stamp {
	return Stamp{Rank: rank, When: c.Now()}
}

// Observe applies a piggybacked timestamp to the clock: the clock
// advances to at least s.When and the resulting time is returned. This is
// the receive-side half of timestamp piggybacking.
func (c *Clock) Observe(s Stamp) Time {
	return c.AdvanceTo(s.When)
}

// MaxStamp returns the latest of the given stamps; with no stamps it
// returns the zero Stamp. Coordinators use this to compute the completion
// time of an operation that must wait for every participant.
func MaxStamp(stamps []Stamp) Stamp {
	var max Stamp
	for i, s := range stamps {
		if i == 0 || s.When > max.When {
			max = s
		}
	}
	return max
}

// Stopwatch measures a span of virtual time on a clock.
type Stopwatch struct {
	clock *Clock
	start Time
}

// StartStopwatch begins measuring from the clock's current time.
func StartStopwatch(c *Clock) Stopwatch {
	return Stopwatch{clock: c, start: c.Now()}
}

// Elapsed reports virtual time accumulated since the stopwatch started.
func (s Stopwatch) Elapsed() Duration {
	return s.clock.Now().Sub(s.start)
}

// RNG is a small deterministic pseudo-random number generator
// (SplitMix64). It is used wherever the simulation needs variability —
// per-op workload jitter — while remaining reproducible for a given
// seed. math/rand would also work, but a self-contained generator keeps
// the substrate free of global state and seed-ordering surprises.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with the given value.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed + 0x9e3779b97f4a7c15}
}

// Uint64 returns the next 64-bit pseudo-random value.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a value uniformly distributed in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Intn returns a value uniformly distributed in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("vtime: Intn called with non-positive n=%d", n))
	}
	return int(r.Uint64() % uint64(n))
}

// Jitter returns a multiplicative factor in [1-spread, 1+spread] used to
// perturb modelled costs.
func (r *RNG) Jitter(spread float64) float64 {
	return 1 + spread*(2*r.Float64()-1)
}
