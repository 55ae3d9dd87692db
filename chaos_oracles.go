package repro

import (
	"fmt"
	"sort"
)

// This file is the invariant-oracle library of the chaos search plane:
// the properties every run must uphold no matter what the fault plan did,
// extracted from the assertions the chaos tests previously inlined. Each
// oracle judges one ChaosRun and returns a verdict; CheckInvariants runs
// the whole catalog in a fixed order. See docs/chaos-search.md.

// ChaosRun bundles everything the oracles may inspect about one
// experiment: the config it ran under, the run itself, an optional
// uncoordinated baseline under the same conditions, and an optional
// flight-log replay.
type ChaosRun struct {
	// Config is the run's configuration (oracles read the overload
	// envelope and robustness knobs from it).
	Config RubisConfig
	// Coordinated reports which plane Run used.
	Coordinated bool
	// Run is the run under judgment.
	Run *RubisRun
	// Baseline, when non-nil, is the local-only (uncoordinated) run the
	// comparative oracles measure Run against.
	Baseline *RubisRun
	// Replay, when non-nil, is a record->replay divergence check of Run.
	Replay *FlightReplay
	// PowerCap, when non-nil, is a power-cap run judged by the cap oracle
	// (the governor reads the same metered watts the energy ledgers
	// integrate, so its series is the authoritative platform power).
	PowerCap *PowerCapRun
}

// OracleVerdict is one oracle's judgment.
type OracleVerdict struct {
	Oracle  string `json:"oracle"`
	Ok      bool   `json:"ok"`
	Skipped bool   `json:"skipped,omitempty"` // preconditions not met; Ok is true
	Detail  string `json:"detail,omitempty"`
}

// Oracle names, in catalog order.
const (
	OracleOverloadLedger = "overload-ledger"
	OracleAtMostOnce     = "at-most-once"
	OracleGoodputFloor   = "goodput-floor"
	OracleBoundedMean    = "bounded-mean"
	OracleBoundedP95     = "bounded-p95"
	OracleLeaseMonotonic = "lease-monotonic"
	OracleCorruption     = "corruption-contained"
	OracleWeightsClamped = "weights-clamped"
	OracleEnergyConserve = "energy-conserve"
	OraclePowerCap       = "power-cap"
	OracleReplay         = "replay-divergence"
)

// ChaosOracles returns the catalog's oracle names in evaluation order.
func ChaosOracles() []string {
	return []string{
		OracleOverloadLedger, OracleAtMostOnce, OracleGoodputFloor,
		OracleBoundedMean, OracleBoundedP95, OracleLeaseMonotonic,
		OracleCorruption, OracleWeightsClamped, OracleEnergyConserve,
		OraclePowerCap, OracleReplay,
	}
}

// CheckInvariants judges the run against every oracle in the catalog and
// returns the verdicts in catalog order. Oracles whose preconditions the
// run does not meet (no overload plane armed, no baseline supplied, no
// replay performed) are marked Skipped rather than silently passing, so
// callers can detect vacuous checks.
func CheckInvariants(cr ChaosRun) []OracleVerdict {
	return []OracleVerdict{
		checkOverloadLedger(cr),
		checkAtMostOnce(cr),
		checkGoodputFloor(cr),
		checkBoundedMean(cr),
		checkBoundedP95(cr),
		checkLeaseMonotonic(cr),
		checkCorruptionContained(cr),
		checkWeightsClamped(cr),
		checkEnergyConserve(cr),
		checkPowerCap(cr),
		checkReplay(cr),
	}
}

// FailedOracles filters a verdict list down to the violations.
func FailedOracles(vs []OracleVerdict) []OracleVerdict {
	var out []OracleVerdict
	for _, v := range vs {
		if !v.Ok && !v.Skipped {
			out = append(out, v)
		}
	}
	return out
}

func pass(name string) OracleVerdict {
	return OracleVerdict{Oracle: name, Ok: true}
}

func skip(name, why string) OracleVerdict {
	return OracleVerdict{Oracle: name, Ok: true, Skipped: true, Detail: why}
}

func fail(name, format string, args ...any) OracleVerdict {
	return OracleVerdict{Oracle: name, Detail: fmt.Sprintf(format, args...)}
}

// checkOverloadLedger verifies per-tier admission-counter conservation:
// at run end each tier's Offered - Served - Shed - Expired is its
// in-flight population, which must be non-negative and (with a bounded
// queue) within the queue cap, as must the largest backlog it observed.
// No request is ever created or destroyed by the admission plane.
func checkOverloadLedger(cr ChaosRun) OracleVerdict {
	if cr.Config.Overload == nil || cr.Run == nil {
		return skip(OracleOverloadLedger, "overload plane not armed")
	}
	cap := cr.Config.Overload.QueueCap
	if cap == 0 {
		cap = 512 // the plane's calibrated default
	}
	for _, tier := range cr.Run.Overload.Tiers {
		inFlight := int64(tier.Offered) - int64(tier.Served) - int64(tier.Shed) - int64(tier.Expired)
		if inFlight < 0 {
			return fail(OracleOverloadLedger,
				"tier %s served+shed+expired exceeds offered: %d - %d - %d - %d = %d",
				tier.Tier, tier.Offered, tier.Served, tier.Shed, tier.Expired, inFlight)
		}
		if cap > 0 && inFlight > int64(cap) {
			return fail(OracleOverloadLedger,
				"tier %s ends with %d in flight, cap %d", tier.Tier, inFlight, cap)
		}
		if cap > 0 && tier.MaxWaiting > cap {
			return fail(OracleOverloadLedger,
				"tier %s backlog peaked at %d, cap %d", tier.Tier, tier.MaxWaiting, cap)
		}
	}
	return pass(OracleOverloadLedger)
}

// checkAtMostOnce verifies the Tune delivery contract: the x86 actuator
// never applies more Tunes than were sent toward it — the IXP agent's
// demand Tunes, the x86 agent's own overload boosts, and the controller's
// translated boosts. Duplication in flight must be deduplicated, never
// double-applied.
func checkAtMostOnce(cr ChaosRun) OracleVerdict {
	if cr.Run == nil || !cr.Coordinated {
		return skip(OracleAtMostOnce, "uncoordinated run sends no Tunes")
	}
	sent := cr.Run.TunesSent + cr.Run.TunesSelfSent + cr.Run.Overload.BoostTunes
	if cr.Run.TunesApplied > sent {
		return fail(OracleAtMostOnce,
			"applied %d Tunes but only %d sent (%d ixp + %d self + %d boost)",
			cr.Run.TunesApplied, sent, cr.Run.TunesSent, cr.Run.TunesSelfSent,
			cr.Run.Overload.BoostTunes)
	}
	return pass(OracleAtMostOnce)
}

// goodputFloorFraction is the coordination-never-hurts floor: under any
// fault plan a coordinated run must keep at least this fraction of the
// local-only baseline's goodput.
const goodputFloorFraction = 0.95

// checkGoodputFloor verifies that coordination degrades gracefully: a
// coordinated run under faults keeps >= 95% of the throughput of the
// local-only plane under the same conditions. A fault plan that makes
// coordination worse than no coordination is a real robustness bug.
func checkGoodputFloor(cr ChaosRun) OracleVerdict {
	if cr.Run == nil || cr.Baseline == nil || !cr.Coordinated {
		return skip(OracleGoodputFloor, "no local baseline to compare against")
	}
	if cr.Baseline.Throughput <= 0 {
		return skip(OracleGoodputFloor, "baseline served nothing")
	}
	floor := goodputFloorFraction * cr.Baseline.Throughput
	if cr.Run.Throughput < floor {
		return fail(OracleGoodputFloor,
			"coordinated %.2f req/s under local floor %.2f (%.0f%% of %.2f)",
			cr.Run.Throughput, floor, goodputFloorFraction*100, cr.Baseline.Throughput)
	}
	return pass(OracleGoodputFloor)
}

// checkBoundedMean verifies coordinated mean latency stays within 5% of
// the local baseline's. Only judged off the overload regime: past
// saturation, shedding reshapes the served population and means are no
// longer comparable.
func checkBoundedMean(cr ChaosRun) OracleVerdict {
	if cr.Run == nil || cr.Baseline == nil || !cr.Coordinated {
		return skip(OracleBoundedMean, "no local baseline to compare against")
	}
	if cr.Config.Overload != nil || cr.Config.LoadFactor > 1 {
		return skip(OracleBoundedMean, "overload regime; shedding reshapes the served mix")
	}
	base := cr.Baseline.MeanOverTypes()
	if base <= 0 {
		return skip(OracleBoundedMean, "baseline served nothing")
	}
	got := cr.Run.MeanOverTypes()
	if got > 1.05*base {
		return fail(OracleBoundedMean,
			"coordinated mean %.2fms exceeds 1.05x local mean %.2fms", got, base)
	}
	return pass(OracleBoundedMean)
}

// checkBoundedP95 verifies the overload plane's tail-latency promise
// under coordination: the coordinated run's p95 of *served* responses
// must stay within 25% (plus a small absolute allowance) of the
// local-shedding baseline's under the same conditions — coordination may
// reshape which requests are served, but must not blow up the tail the
// bounded queues and deadlines otherwise guarantee.
func checkBoundedP95(cr ChaosRun) OracleVerdict {
	ov := cr.Config.Overload
	if ov == nil || cr.Run == nil || cr.Baseline == nil || !cr.Coordinated {
		return skip(OracleBoundedP95, "overload plane or baseline not armed")
	}
	if ov.QueueDeadline <= 0 {
		return skip(OracleBoundedP95, "no queueing deadline to bound waiting")
	}
	got, base := cr.Run.Overload.ServedP95Ms, cr.Baseline.Overload.ServedP95Ms
	if got <= 0 || base <= 0 {
		return skip(OracleBoundedP95, "no served-latency sample")
	}
	bound := 1.25*base + float64(ov.QueueDeadline.Milliseconds())
	if got > bound {
		return fail(OracleBoundedP95,
			"coordinated served p95 %.1fms exceeds bound %.1fms (1.25x local %.1fms + %v deadline)",
			got, bound, base, ov.QueueDeadline)
	}
	return pass(OracleBoundedP95)
}

// checkLeaseMonotonic verifies lease/epoch monotonicity on the liveness
// plane: an island can only rejoin after its lease actually expired, so
// rejoins never outnumber expiries.
func checkLeaseMonotonic(cr ChaosRun) OracleVerdict {
	if cr.Run == nil || !cr.Config.Robust && cr.Config.Failover == nil {
		return skip(OracleLeaseMonotonic, "reliable plane not armed")
	}
	rb := cr.Run.Robustness
	if rb.Rejoins > rb.LeaseExpiries {
		return fail(OracleLeaseMonotonic,
			"%d rejoins but only %d lease expiries", rb.Rejoins, rb.LeaseExpiries)
	}
	return pass(OracleLeaseMonotonic)
}

// checkCorruptionContained verifies corrupted coordination messages can
// only degrade, never misactuate: every corrupted frame that arrived was
// caught by a checksum and dropped — the ledger reconciles exactly. An
// arrival without a matching drop is a frame that actuated corrupt
// state; a drop without an arrival is double counting. Frames still in
// flight at run end were injected but never arrived, so arrivals (not
// injections) are the reconciliation basis, bounded above by injections.
func checkCorruptionContained(cr ChaosRun) OracleVerdict {
	if cr.Run == nil {
		return skip(OracleCorruption, "no run")
	}
	rb := cr.Run.Robustness
	if rb.CorruptDrops != rb.CorruptArrived {
		return fail(OracleCorruption,
			"%d corrupted frames arrived but %d dropped on checksum — %+d escaped or double-counted",
			rb.CorruptArrived, rb.CorruptDrops, int64(rb.CorruptArrived)-int64(rb.CorruptDrops))
	}
	if rb.CorruptArrived > rb.Corrupted {
		return fail(OracleCorruption,
			"%d corrupted frames arrived but only %d were injected",
			rb.CorruptArrived, rb.Corrupted)
	}
	return pass(OracleCorruption)
}

// Weight clamp bounds of the x86 actuator (core.X86Actuator defaults).
const (
	minActuatorWeight = 64
	maxActuatorWeight = 4096
)

// checkWeightsClamped verifies no fault sequence can drive a domain's
// credit weight outside the actuator's clamp range.
func checkWeightsClamped(cr ChaosRun) OracleVerdict {
	if cr.Run == nil || len(cr.Run.FinalWeights) == 0 {
		return skip(OracleWeightsClamped, "no final weights reported")
	}
	names := make([]string, 0, len(cr.Run.FinalWeights))
	for name := range cr.Run.FinalWeights {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if w := cr.Run.FinalWeights[name]; w < minActuatorWeight || w > maxActuatorWeight {
			return fail(OracleWeightsClamped,
				"domain %s ends at weight %d outside [%d, %d]",
				name, w, minActuatorWeight, maxActuatorWeight)
		}
	}
	return pass(OracleWeightsClamped)
}

// energyConserveEps absorbs the float64 rounding of converting exact
// integer-nanojoule ledgers to joules; the underlying meter charges the
// identical increment to the island and platform ledgers, so any larger
// discrepancy is a real conservation bug.
const energyConserveEps = 1e-6

// checkEnergyConserve verifies the energy ledgers conserve: the island
// joules must sum to the platform joules. The meter charges both ledgers
// from the same integration, so no fault plan — crashes, partitions,
// governor churn — may create or destroy energy.
func checkEnergyConserve(cr ChaosRun) OracleVerdict {
	if cr.Config.Energy == nil || cr.Run == nil {
		return skip(OracleEnergyConserve, "energy subsystem not armed")
	}
	e := cr.Run.Energy
	sum := e.X86Joules + e.IXPJoules
	if diff := sum - e.PlatformJoules; diff > energyConserveEps || diff < -energyConserveEps {
		return fail(OracleEnergyConserve,
			"island joules %.9f + %.9f = %.9f != platform %.9f (diff %.3g)",
			e.X86Joules, e.IXPJoules, sum, e.PlatformJoules, diff)
	}
	return pass(OracleEnergyConserve)
}

// powerCapMaxStreak bounds consecutive over-cap control periods after
// convergence: one period for the excursion to show in the metered window
// plus one for the throttle Tune to land — "never above the cap for longer
// than one control period" once detection and actuation latency are
// accounted. The initial convergence ramp (before the governor first
// brings the platform under its cap) is excluded: a cold start against a
// saturating workload lawfully spends several periods throttling down.
const powerCapMaxStreak = 2

// checkPowerCap verifies the cap promise on a power-cap run: after first
// convergence, platform power never stays above CapWatts for more than
// powerCapMaxStreak consecutive control periods.
func checkPowerCap(cr ChaosRun) OracleVerdict {
	pc := cr.PowerCap
	if pc == nil {
		return skip(OraclePowerCap, "no power-cap run supplied")
	}
	converged, streak := false, 0
	for _, pt := range pc.Series {
		if pt.Value <= pc.CapWatts {
			converged = true
			streak = 0
			continue
		}
		if !converged {
			continue
		}
		streak++
		if streak > powerCapMaxStreak {
			return fail(OraclePowerCap,
				"platform stayed over the %.0fW cap for %d consecutive periods (> %d) around t=%.1fs",
				pc.CapWatts, streak, powerCapMaxStreak, pt.Seconds)
		}
	}
	if !converged {
		return fail(OraclePowerCap, "platform never came under the %.0fW cap", pc.CapWatts)
	}
	return pass(OraclePowerCap)
}

// checkReplay verifies record->replay zero-divergence: replaying the
// run's flight log reproduces the identical coordination event stream.
func checkReplay(cr ChaosRun) OracleVerdict {
	if cr.Replay == nil {
		return skip(OracleReplay, "run was not recorded")
	}
	if d := cr.Replay.Divergence; d != nil {
		return fail(OracleReplay, "replay diverged: %s", d)
	}
	return pass(OracleReplay)
}
