// Package flight is the coordination plane's flight recorder: a compact,
// CRC-framed binary event log (a .flight file) capturing every decision the
// coordination and overload-control planes make during a run — Tune/Trigger
// sends and actuations, credit-weight changes and boosts, IXP shed/poll
// adjustments, admission verdicts, breaker transitions, and lease events.
//
// The recorder is passive: it observes through taps at the event sites
// (with a nil-pointer convention — a disabled recorder costs exactly one
// branch per event site), consumes no simulation randomness, and schedules
// no events, so an armed recorder never changes a run's simulated metrics. Because every run is a pure function of its
// configuration and seed, the log header carries both: a replayer can re-run
// the simulation and stream the live events against the log, turning
// "deterministic" from a test assertion into a checkable artifact — the
// first divergence is reported with its sim-time, category, and both
// payloads. A .flight file is an instance of codec's log container; see
// docs/flightrecorder.md for the format specification.
package flight

import (
	"fmt"

	"repro/internal/sim"
)

// Category classifies flight events. Each category forms its own
// varint-delta timestamp stream in the encoding (global record order is
// preserved; only the delta base is per-category).
type Category uint8

// Event categories.
const (
	CatSend     Category = iota // coordination message sent by an island agent
	CatApply                    // coordination message actuated by an island agent
	CatWeight                   // credit-scheduler weight change (xen Ctl)
	CatBoost                    // runqueue boost (Trigger actuation on x86)
	CatIXP                      // IXP-side adjustment: flow threads, poll interval, gate shed, shed rate
	CatAdmit                    // admission-queue verdict (served / shed / expired)
	CatBreaker                  // circuit-breaker state transition
	CatLease                    // lease transition or quarantine drop
	CatFailover                 // controller-replication event: checkpoint, crash, election, reconciliation
	CatEnergy                   // energy-plane event: DVFS commit, pool gating, governor decision
)

// NumCategories sizes per-category state arrays. Deliberately untyped so it
// is not itself an enum member.
const NumCategories = 10

// String names the category.
func (c Category) String() string {
	switch c {
	case CatSend:
		return "send"
	case CatApply:
		return "apply"
	case CatWeight:
		return "weight"
	case CatBoost:
		return "boost"
	case CatIXP:
		return "ixp"
	case CatAdmit:
		return "admit"
	case CatBreaker:
		return "breaker"
	case CatLease:
		return "lease"
	case CatFailover:
		return "failover"
	case CatEnergy:
		return "energy"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Sub-type codes for CatSend and CatApply events mirror core.Kind (the
// flight package cannot import core, which imports it; the rendering table
// below is kept in sync by TestKindNamesMatchCore).
const (
	KindTune      uint8 = 0
	KindTrigger   uint8 = 1
	KindRegister  uint8 = 2
	KindAck       uint8 = 3
	KindHeartbeat uint8 = 4
	KindShed      uint8 = 5
)

// kindName renders a CatSend/CatApply code.
func kindName(code uint8) string {
	switch code {
	case KindTune:
		return "tune"
	case KindTrigger:
		return "trigger"
	case KindRegister:
		return "register"
	case KindAck:
		return "ack"
	case KindHeartbeat:
		return "heartbeat"
	case KindShed:
		return "shed"
	default:
		return fmt.Sprintf("kind(%d)", code)
	}
}

// Sub-type codes for CatIXP events.
const (
	IXPThreads  uint8 = 0 // flow dequeue-thread allocation changed; Arg = new count
	IXPPoll     uint8 = 1 // flow poll interval changed; Arg = new interval (ns)
	IXPGateShed uint8 = 2 // early-admission gate shed a packet; Arg = packet ID
	IXPShedRate uint8 = 3 // per-class shedder rate adjusted; Arg = delta units
)

// Sub-type codes for CatAdmit events; Arg carries the overload.Class.
const (
	AdmitServed  uint8 = 0
	AdmitShed    uint8 = 1
	AdmitExpired uint8 = 2
)

// Sub-type codes for CatBreaker events mirror overload.BreakerState: Code
// is the state entered, Arg the state left.
const (
	BreakerClosed   uint8 = 0
	BreakerOpen     uint8 = 1
	BreakerHalfOpen uint8 = 2
)

// breakerName renders a breaker state code.
func breakerName(code uint8) string {
	switch code {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("state(%d)", code)
	}
}

// Sub-type codes for CatLease events.
const (
	LeaseSuspect    uint8 = 0 // island lease moved to suspect
	LeaseDead       uint8 = 1 // island lease expired
	LeaseRejoin     uint8 = 2 // dead island rejoined via heartbeat
	LeaseQuarantine uint8 = 3 // message dropped: target or home island quarantined
	LeaseFlap       uint8 = 4 // dead island rejoined inside the hysteresis window (suppressed rejoin)
)

// leaseName renders a lease code.
func leaseName(code uint8) string {
	switch code {
	case LeaseSuspect:
		return "suspect"
	case LeaseDead:
		return "dead"
	case LeaseRejoin:
		return "rejoin"
	case LeaseQuarantine:
		return "quarantine-drop"
	case LeaseFlap:
		return "flap-rejoin"
	default:
		return fmt.Sprintf("lease(%d)", code)
	}
}

// Sub-type codes for CatFailover events. Entity carries the replica ID
// (-1 when not replica-specific); Arg is code-specific.
const (
	FailCheckpoint uint8 = 0 // primary wrote a checkpoint; Arg = encoded bytes
	FailCrash      uint8 = 1 // replica crashed (volatile state lost)
	FailRestart    uint8 = 2 // crashed replica restarted from the durable store
	FailIsolate    uint8 = 3 // replica partitioned from agents and peers
	FailHeal       uint8 = 4 // replica's partition healed
	FailPromote    uint8 = 5 // standby promoted to primary; Arg = new term
	FailDemote     uint8 = 6 // superseded primary demoted on heal; Arg = current term
	FailReconcile  uint8 = 7 // anti-entropy epoch comparison; Label = island, Arg = view-agent delta
	FailStaleDrop  uint8 = 8 // stale in-flight decisions discarded; Label = island/endpoint, Arg = count
	FailNoPrimary  uint8 = 9 // coordination message dropped: no live primary; Arg = message kind
)

// failName renders a failover code.
func failName(code uint8) string {
	switch code {
	case FailCheckpoint:
		return "checkpoint"
	case FailCrash:
		return "crash"
	case FailRestart:
		return "restart"
	case FailIsolate:
		return "isolate"
	case FailHeal:
		return "heal"
	case FailPromote:
		return "promote"
	case FailDemote:
		return "demote"
	case FailReconcile:
		return "reconcile"
	case FailStaleDrop:
		return "stale-drop"
	case FailNoPrimary:
		return "no-primary-drop"
	default:
		return fmt.Sprintf("failover(%d)", code)
	}
}

// Sub-type codes for CatEnergy events.
const (
	// EnergyFreq: the x86 island committed a DVFS operating point; Label =
	// island, Arg = new core frequency in MHz.
	EnergyFreq uint8 = 0
	// EnergyPools: the IXP island gated or ungated microengine pools;
	// Label = island, Arg = active pool count.
	EnergyPools uint8 = 1
	// EnergyGovernor: an energy governor armed; Label = mode, Arg = QoS
	// target (ns; 0 for latency-blind per-island governors).
	EnergyGovernor uint8 = 2
	// EnergyQoS: a governor control window observed p95 latency above the
	// QoS target; Label = "governor", Arg = windowed p95 (ns).
	EnergyQoS uint8 = 3
)

// energyName renders an energy code.
func energyName(code uint8) string {
	switch code {
	case EnergyFreq:
		return "freq"
	case EnergyPools:
		return "pools"
	case EnergyGovernor:
		return "governor"
	case EnergyQoS:
		return "qos-violation"
	default:
		return fmt.Sprintf("energy(%d)", code)
	}
}

// Event is one flight record. The fields are deliberately all integers plus
// one interned string so the encoding stays compact and comparisons during
// replay are exact.
type Event struct {
	T      sim.Time // simulation timestamp
	Cat    Category // category (selects the Code namespace)
	Code   uint8    // sub-type within the category
	Label  string   // island / domain / queue / endpoint name (interned)
	Entity int32    // platform-wide entity (VM) ID; -1 when not applicable
	Arg    int64    // category-specific argument (delta, weight, state, ...)
}

// payload renders the category-specific portion of the event.
func (e Event) payload() string {
	switch e.Cat {
	case CatSend, CatApply:
		return fmt.Sprintf("%s %s entity=%d delta=%+d", kindName(e.Code), e.Label, e.Entity, e.Arg)
	case CatWeight:
		return fmt.Sprintf("%s entity=%d weight=%d", e.Label, e.Entity, e.Arg)
	case CatBoost:
		return fmt.Sprintf("%s entity=%d", e.Label, e.Entity)
	case CatIXP:
		switch e.Code {
		case IXPThreads:
			return fmt.Sprintf("threads flow=%d n=%d", e.Entity, e.Arg)
		case IXPPoll:
			return fmt.Sprintf("poll flow=%d interval=%s", e.Entity, sim.Time(e.Arg))
		case IXPGateShed:
			return fmt.Sprintf("gate-shed flow=%d pkt=%d", e.Entity, e.Arg)
		case IXPShedRate:
			return fmt.Sprintf("shed-rate %s delta=%+d", e.Label, e.Arg)
		default:
			return fmt.Sprintf("ixp(%d) flow=%d arg=%d", e.Code, e.Entity, e.Arg)
		}
	case CatAdmit:
		verdict := [...]string{"served", "shed", "expired"}
		v := fmt.Sprintf("admit(%d)", e.Code)
		if int(e.Code) < len(verdict) {
			v = verdict[e.Code]
		}
		return fmt.Sprintf("%s %s class=%d", e.Label, v, e.Arg)
	case CatBreaker:
		return fmt.Sprintf("%s %s->%s", e.Label, breakerName(uint8(e.Arg)), breakerName(e.Code))
	case CatLease:
		return fmt.Sprintf("%s %s", e.Label, leaseName(e.Code))
	case CatFailover:
		if e.Label != "" {
			return fmt.Sprintf("%s %s replica=%d arg=%d", failName(e.Code), e.Label, e.Entity, e.Arg)
		}
		return fmt.Sprintf("%s replica=%d arg=%d", failName(e.Code), e.Entity, e.Arg)
	case CatEnergy:
		switch e.Code {
		case EnergyFreq:
			return fmt.Sprintf("freq %s mhz=%d", e.Label, e.Arg)
		case EnergyPools:
			return fmt.Sprintf("pools %s active=%d", e.Label, e.Arg)
		case EnergyGovernor:
			return fmt.Sprintf("governor %s target=%s", e.Label, sim.Time(e.Arg))
		case EnergyQoS:
			return fmt.Sprintf("qos-violation p95=%s", sim.Time(e.Arg))
		default:
			return fmt.Sprintf("%s %s arg=%d", energyName(e.Code), e.Label, e.Arg)
		}
	default:
		return fmt.Sprintf("%s entity=%d code=%d arg=%d", e.Label, e.Entity, e.Code, e.Arg)
	}
}

// String renders the event as a log line.
func (e Event) String() string {
	return fmt.Sprintf("%12.6fs [%s] %s", e.T.Seconds(), e.Cat, e.payload())
}
