package core

import (
	"fmt"

	"repro/internal/flight"
	"repro/internal/sim"
)

// LeaseState is an island's liveness as judged by the heartbeat watchdog.
type LeaseState int

// Lease states. The machine is Alive -> Suspect -> Dead on heartbeat
// silence, and any heartbeat returns the island to Alive (a Dead->Alive
// transition is a rejoin).
const (
	LeaseAlive LeaseState = iota
	LeaseSuspect
	LeaseDead
)

// String names the lease state.
func (s LeaseState) String() string {
	switch s {
	case LeaseAlive:
		return "alive"
	case LeaseSuspect:
		return "suspect"
	case LeaseDead:
		return "dead"
	default:
		return fmt.Sprintf("LeaseState(%d)", int(s))
	}
}

// lease tracks one island's heartbeat liveness. flapped marks a probationary
// rejoin: the island came back inside the hysteresis window after dying, so
// the rejoin is not counted until it survives alive for the full window (and
// a re-death inside probation does not count a second expiry).
type lease struct {
	lastHeard sim.Time
	state     LeaseState
	deadAt    sim.Time // when the lease last expired
	rejoinAt  sim.Time // when the probationary rejoin happened
	flapped   bool     // rejoin is on probation (hysteresis not yet served)
}

// WatchdogConfig parameterizes the Controller's heartbeat watchdog.
type WatchdogConfig struct {
	// CheckPeriod is the sweep (and downlink ping) interval (default
	// 250ms).
	CheckPeriod sim.Time
	// SuspectAfter marks an island suspect after this much heartbeat
	// silence (default 3x CheckPeriod).
	SuspectAfter sim.Time
	// DeadAfter expires the island's lease after this much silence
	// (default 8x CheckPeriod): its entities are quarantined until it
	// rejoins.
	DeadAfter sim.Time
	// RejoinHysteresis is the minimum time an island must have been dead
	// before its next heartbeat counts as a rejoin (default 1x
	// CheckPeriod). A faster comeback is a flap: the island still returns
	// to Alive (and OnRejoin still fires so revert timers are cancelled)
	// but the Rejoins counter waits until the island stays alive for the
	// hysteresis window, and a re-death inside that probation does not
	// count another LeaseExpiry — rapid flap cycles register one expiry,
	// at most one rejoin, and a FlapSuppressed count.
	RejoinHysteresis sim.Time

	// OnSuspect/OnDead/OnRejoin are optional transition hooks.
	OnSuspect func(island string)
	OnDead    func(island string)
	OnRejoin  func(island string)
}

func (c *WatchdogConfig) applyDefaults() {
	if c.CheckPeriod == 0 {
		c.CheckPeriod = 250 * sim.Millisecond
	}
	if c.SuspectAfter == 0 {
		c.SuspectAfter = 3 * c.CheckPeriod
	}
	if c.DeadAfter == 0 {
		c.DeadAfter = 8 * c.CheckPeriod
	}
	if c.RejoinHysteresis == 0 {
		c.RejoinHysteresis = c.CheckPeriod
	}
}

// leaseTable is the Controller's heartbeat/lease watchdog: one lease per
// island that has heartbeated, advanced by a periodic sweep and renewed by
// heartbeats, with the flap hysteresis and the transition hooks of
// WatchdogConfig.
type leaseTable struct {
	sim      *sim.Simulator // nil until enable: heartbeats are then only counted
	cfg      WatchdogConfig
	byIsland map[string]*lease

	heartbeats uint64
	expiries   uint64
	rejoins    uint64
	flaps      uint64

	// record taps one lease transition into the flight log.
	record func(code uint8, island string)
}

func newLeaseTable(record func(code uint8, island string)) leaseTable {
	return leaseTable{byIsland: make(map[string]*lease), record: record}
}

// enable arms the table with the defaulted watchdog configuration.
func (t *leaseTable) enable(s *sim.Simulator, cfg WatchdogConfig) {
	cfg.applyDefaults()
	t.sim, t.cfg = s, cfg
}

// sweep advances the lease states of the named islands, in order (callers
// pass a sorted list for determinism).
func (t *leaseTable) sweep(islands []string) {
	now := t.sim.Now()
	for _, name := range islands {
		l, ok := t.byIsland[name]
		if !ok {
			continue // never heartbeated: not lease-managed
		}
		silence := now - l.lastHeard
		switch l.state {
		case LeaseAlive:
			if l.flapped && now-l.rejoinAt >= t.cfg.RejoinHysteresis {
				// The probationary rejoin survived the hysteresis
				// window: it was genuine after all.
				l.flapped = false
				t.rejoins++
				t.record(flight.LeaseRejoin, name)
			}
			if silence > t.cfg.SuspectAfter {
				l.state = LeaseSuspect
				t.record(flight.LeaseSuspect, name)
				if t.cfg.OnSuspect != nil {
					t.cfg.OnSuspect(name)
				}
			}
		case LeaseSuspect:
			if silence > t.cfg.DeadAfter {
				l.state = LeaseDead
				l.deadAt = now
				if l.flapped {
					// Re-death inside the rejoin probation: the earlier
					// expiry already counted; this is the same outage
					// continuing, not a new one.
					l.flapped = false
				} else {
					t.expiries++
				}
				t.record(flight.LeaseDead, name)
				if t.cfg.OnDead != nil {
					t.cfg.OnDead(name)
				}
			}
		case LeaseDead:
			// Stays dead until a heartbeat rejoins it.
		}
	}
}

// observe counts a heartbeat and, once the table is enabled, renews the
// lease of a known island, rejoining it if dead.
func (t *leaseTable) observe(island string, known bool) {
	t.heartbeats++
	if t.sim == nil || island == "" || !known {
		return
	}
	now := t.sim.Now()
	l, ok := t.byIsland[island]
	if !ok {
		t.byIsland[island] = &lease{lastHeard: now, state: LeaseAlive}
		return
	}
	if l.state == LeaseDead {
		if now-l.deadAt < t.cfg.RejoinHysteresis {
			// Flap: the island came back before serving the minimum dead
			// time. It rejoins functionally (state, hooks) but the rejoin
			// stays on probation until it survives the hysteresis window.
			t.flaps++
			l.flapped = true
			l.rejoinAt = now
			t.record(flight.LeaseFlap, island)
		} else {
			t.rejoins++
			t.record(flight.LeaseRejoin, island)
		}
		if t.cfg.OnRejoin != nil {
			t.cfg.OnRejoin(island)
		}
	}
	l.state = LeaseAlive
	l.lastHeard = now
}

// state returns the island's lease state; false if it never heartbeated.
func (t *leaseTable) state(island string) (LeaseState, bool) {
	if l, ok := t.byIsland[island]; ok {
		return l.state, true
	}
	return LeaseAlive, false
}

// dead reports whether the island's lease has expired.
func (t *leaseTable) dead(island string) bool {
	l, ok := t.byIsland[island]
	return ok && l.state == LeaseDead
}
