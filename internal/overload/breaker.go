package overload

import (
	"fmt"

	"repro/internal/flight"
	"repro/internal/sim"
)

// BreakerState is a circuit breaker's position.
type BreakerState int

// Breaker states: Closed (traffic flows) -> Open (fail fast) on consecutive
// failures; Open -> HalfOpen (one probe at a time) once the jittered hold
// expires; HalfOpen -> Closed on enough probe successes, or back to Open on
// any probe failure.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String names the state.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int(s))
	}
}

// probeJitter is the widest fraction of OpenTimeout added to a breaker's
// probe hold.
const probeJitter = 0.25

// BreakerConfig parameterizes a Breaker. Zero fields take the defaults
// noted below.
type BreakerConfig struct {
	// FailureThreshold is the consecutive-failure count that trips the
	// breaker open (default 3).
	FailureThreshold int
	// OpenTimeout is the base hold before the first half-open probe
	// (default 100ms). Each hold is widened by a uniform fraction of
	// OpenTimeout in [0, probeJitter), decorrelating probes across
	// breakers.
	OpenTimeout sim.Time
	// SuccessThreshold is the consecutive probe successes that close a
	// half-open breaker (default 2).
	SuccessThreshold int
	// Seed initializes the breaker's private jitter stream (default 1).
	// The stream is independent of the simulation's main RNG so that
	// arming a breaker never perturbs an existing run's random sequence.
	Seed int64
}

func (c *BreakerConfig) applyDefaults() {
	if c.FailureThreshold == 0 {
		c.FailureThreshold = 3
	}
	if c.OpenTimeout == 0 {
		c.OpenTimeout = 100 * sim.Millisecond
	}
	if c.SuccessThreshold == 0 {
		c.SuccessThreshold = 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// BreakerStats counts a breaker's transitions and verdicts.
type BreakerStats struct {
	Opens     uint64 // transitions into Open (trips and failed probes)
	HalfOpens uint64 // transitions into HalfOpen
	Closes    uint64 // transitions into Closed (recoveries)
	Rejected  uint64 // Allow() calls refused
	Failures  uint64 // RecordFailure calls
	Successes uint64 // RecordSuccess calls
}

// Breaker is a deterministic sim-time circuit breaker. It keeps no timers:
// the open hold is evaluated lazily on Allow, so an idle breaker schedules
// nothing and a disabled one changes nothing.
type Breaker struct {
	sim   *sim.Simulator
	cfg   BreakerConfig
	rng   *sim.Rand
	state BreakerState

	fails     int      // consecutive failures while closed
	succs     int      // consecutive probe successes while half-open
	probing   bool     // a half-open probe is in flight
	openUntil sim.Time // earliest half-open probe time

	stats BreakerStats

	rec      *flight.Recorder
	recLabel string

	// OnTransition, when set, observes every state change.
	OnTransition func(from, to BreakerState)
}

// SetFlightRecorder taps every state transition into the flight recorder
// under the given endpoint label (nil disables).
func (b *Breaker) SetFlightRecorder(r *flight.Recorder, label string) {
	b.rec, b.recLabel = r, label
}

// NewBreaker builds a breaker with its own seeded jitter stream.
func NewBreaker(s *sim.Simulator, cfg BreakerConfig) *Breaker {
	if s == nil {
		panic("overload: breaker needs a simulator")
	}
	cfg.applyDefaults()
	return &Breaker{sim: s, cfg: cfg, rng: sim.NewRand(cfg.Seed)}
}

// State returns the breaker's current position, resolving a lapsed open
// hold to HalfOpen.
func (b *Breaker) State() BreakerState {
	if b.state == BreakerOpen && b.sim.Now() >= b.openUntil {
		b.transition(BreakerHalfOpen)
	}
	return b.state
}

// Stats returns a snapshot of the breaker's counters.
func (b *Breaker) Stats() BreakerStats { return b.stats }

// Allow reports whether one attempt may proceed now. Closed always allows;
// Open rejects until the jittered hold lapses; HalfOpen allows exactly one
// probe at a time.
func (b *Breaker) Allow() bool {
	switch b.State() {
	case BreakerClosed:
		return true
	case BreakerOpen:
		b.stats.Rejected++
		return false
	case BreakerHalfOpen:
		if b.probing {
			b.stats.Rejected++
			return false
		}
		b.probing = true
		return true
	default:
		panic(fmt.Sprintf("overload: breaker in unknown state %d", int(b.state)))
	}
}

// RecordSuccess reports one successful attempt.
func (b *Breaker) RecordSuccess() {
	b.stats.Successes++
	switch b.State() {
	case BreakerClosed:
		b.fails = 0
	case BreakerHalfOpen:
		b.probing = false
		b.succs++
		if b.succs >= b.cfg.SuccessThreshold {
			b.transition(BreakerClosed)
		}
	case BreakerOpen:
		// A straggler ack from before the trip: no state change.
	}
}

// RecordFailure reports one failed attempt, tripping or re-opening the
// breaker as configured.
func (b *Breaker) RecordFailure() {
	b.stats.Failures++
	switch b.State() {
	case BreakerClosed:
		b.fails++
		if b.fails >= b.cfg.FailureThreshold {
			b.open()
		}
	case BreakerHalfOpen:
		b.probing = false
		b.open()
	case BreakerOpen:
		// Already failing fast.
	}
}

// open enters the Open state with a jittered probe hold.
func (b *Breaker) open() {
	hold := b.cfg.OpenTimeout + b.cfg.OpenTimeout.Scale(probeJitter*b.rng.Float64())
	b.openUntil = b.sim.Now() + hold
	b.transition(BreakerOpen)
}

// transition moves to a new state, resetting its entry counters.
func (b *Breaker) transition(to BreakerState) {
	from := b.state
	b.state = to
	switch to {
	case BreakerOpen:
		b.stats.Opens++
		b.fails, b.succs, b.probing = 0, 0, false
	case BreakerHalfOpen:
		b.stats.HalfOpens++
		b.succs, b.probing = 0, false
	case BreakerClosed:
		b.stats.Closes++
		b.fails, b.succs, b.probing = 0, 0, false
	}
	if b.rec != nil {
		b.rec.Record(flight.Event{
			T: b.sim.Now(), Cat: flight.CatBreaker, Code: uint8(to),
			Label: b.recLabel, Entity: -1, Arg: int64(from),
		})
	}
	if b.OnTransition != nil {
		b.OnTransition(from, to)
	}
}
