package repro

// Chaos tests: the reliable coordination plane must make coordination safe
// to leave on. Under injected faults — loss, duplication, reordering,
// bursts, partitions, even island crashes — a coordinated run must never
// end up materially worse than simply not coordinating, and the whole run
// must stay deterministic.

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

func chaosRubisCfg(seed int64) RubisConfig {
	return RubisConfig{Seed: seed, Duration: 40 * time.Second, Warmup: 10 * time.Second}
}

// chaosBaseline caches the uncoordinated run shared by the chaos tests
// (they all compare against the same fault-free baseline).
var chaosBaseline *RubisRun

func chaosBase(t *testing.T) *RubisRun {
	t.Helper()
	if chaosBaseline == nil {
		chaosBaseline = RunRubis(chaosRubisCfg(1), false)
	}
	return chaosBaseline
}

// chaosOverloadCfg is the saturated-deployment shape the overload chaos
// tests drive: 2.5x sessions against bounded tier queues.
func chaosOverloadCfg(seed int64, plan FaultPlan, coordinated bool) RubisConfig {
	cfg := chaosRubisCfg(seed)
	cfg.Robust = true
	cfg.Faults = &plan
	cfg.LoadFactor = 2.5
	cfg.RequestTimeout = 2 * time.Second
	cfg.Overload = &OverloadControl{
		QueueCap: 64, QueueDeadline: 300 * time.Millisecond,
		Threshold: 150 * time.Millisecond, Coordinated: coordinated,
	}
	return cfg
}

// wholeRun is the identity projection: the matrix row is the whole run.
func wholeRun(_ MatrixPoint, r *RubisRun) RubisRun { return *r }

// requireInvariants judges the bundle against the oracle catalog and fails
// the test on any violation. The chaos tests' numeric contracts — goodput
// floor, bounded mean/p95, ledger conservation, at-most-once Tunes, replay
// divergence — live in chaos_oracles.go, so these tests and the chaos
// search engine enforce exactly the same properties.
func requireInvariants(t *testing.T, cr ChaosRun) {
	t.Helper()
	for _, v := range FailedOracles(CheckInvariants(cr)) {
		t.Errorf("oracle %s violated: %s", v.Oracle, v.Detail)
	}
}

// Under every fault plan in the matrix the reliable plane must keep the
// coordinated run from falling below the uncoordinated baseline: worst
// case, degradation reverts to baseline behaviour, so "never more than 5%
// worse" on both throughput and mean response time.
func TestChaosCoordinationNeverHurts(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	matrix := []struct {
		name string
		plan FaultPlan
	}{
		{"chaos-mix", FaultPlan{
			LossRate: 0.2, DupRate: 0.1, ReorderRate: 0.1,
			SpikeRate: 0.05, JitterMax: 100 * time.Microsecond,
			BurstRate: 0.01, BurstLen: 8,
		}},
		{"two-partitions", FaultPlan{Partitions: []Partition{
			{Start: 12 * time.Second, Duration: 4 * time.Second},
			{Start: 25 * time.Second, Duration: 4 * time.Second},
		}}},
		{"crash-restart", FaultPlan{Crashes: []CrashWindow{
			{Island: "ixp", Start: 15 * time.Second, Duration: 5 * time.Second},
		}}},
	}
	// Fan the scenarios across the sweep worker pool; rows land in stable
	// matrix order, so res.Rows[i] is scenario i regardless of completion
	// order (and repetition 0 keeps the base seed, preserving the exact
	// runs this test has always asserted on).
	points := make([]MatrixPoint, len(matrix))
	for i, sc := range matrix {
		cfg := chaosRubisCfg(1)
		cfg.Robust = true
		plan := sc.plan
		cfg.Faults = &plan
		points[i] = MatrixPoint{Name: sc.name, Config: cfg, Coordinated: true}
	}
	res, err := RunMatrix(Matrix[RubisRun]{Points: points, Project: wholeRun}, SweepOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	base := chaosBase(t)
	for i, sc := range matrix {
		sc := sc
		coord := res.Rows[i]
		t.Run(sc.name, func(t *testing.T) {
			cfg := chaosRubisCfg(1)
			cfg.Robust = true
			cfg.Faults = &sc.plan
			requireInvariants(t, ChaosRun{Config: cfg, Coordinated: true, Run: &coord, Baseline: base})
			// The run completed with the plane reconverged: Tunes applied and
			// (for lossy plans) really exercised the reliability machinery.
			rb := coord.Robustness
			if coord.TunesApplied == 0 {
				t.Error("no Tunes applied; coordination never (re)converged")
			}
			if sc.plan.LossRate > 0 {
				if rb.FaultDrops == 0 {
					t.Error("fault plan injected no drops; assertion is vacuous")
				}
				if rb.Retransmits == 0 {
					t.Error("no retransmits despite injected loss")
				}
				if rb.DupDrops == 0 {
					t.Error("no duplicate drops despite injected duplication")
				}
				if rb.AcksReceived == 0 {
					t.Error("reliable plane exchanged no acks")
				}
			}
			if len(sc.plan.Partitions) > 0 && rb.FaultDrops == 0 {
				t.Error("partitions dropped nothing; assertion is vacuous")
			}
			if len(sc.plan.Crashes) > 0 && rb.LeaseExpiries == 0 {
				t.Error("crash window never expired the lease")
			}
		})
	}
}

// An IXP crash mid-run must walk the whole degradation ladder — lease
// expiry, quarantine-side revert to baseline weights, agent-side
// suppression — and then rejoin and reconverge, still ending within 5% of
// the uncoordinated baseline.
func TestChaosCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	base := chaosBase(t)
	cfg := chaosRubisCfg(1)
	cfg.Robust = true
	cfg.Faults = &FaultPlan{Crashes: []CrashWindow{
		{Island: "ixp", Start: 15 * time.Second, Duration: 5 * time.Second},
	}}
	// Run with the flight recorder armed, then replay the log: the whole
	// degradation ladder — crash drops, lease expiry, quarantine, revert,
	// rejoin — must reproduce event-for-event from the same config and seed.
	var flightLog bytes.Buffer
	coord, err := RecordRubis(cfg, true, &flightLog)
	if err != nil {
		t.Fatalf("RecordRubis: %v", err)
	}
	rep, err := ReplayRubis(flightLog.Bytes())
	if err != nil {
		t.Fatalf("ReplayRubis: %v", err)
	}
	// Replay divergence, goodput floor, and bounded mean are all oracle
	// territory now.
	requireInvariants(t, ChaosRun{Config: cfg, Coordinated: true, Run: coord, Baseline: base, Replay: rep})

	rb := coord.Robustness
	if rb.LeaseExpiries < 1 {
		t.Error("crash did not expire the IXP lease")
	}
	if rb.Rejoins < 1 {
		t.Error("restarted island never rejoined")
	}
	if rb.BaselineReverts < 1 {
		t.Error("actuator never reverted to baseline weights")
	}
	if rb.Degradations < 1 || rb.Recoveries < 1 {
		t.Errorf("agent degradations=%d recoveries=%d, want >=1 each",
			rb.Degradations, rb.Recoveries)
	}
	if rb.CrashDrops < 1 {
		t.Error("crashed agent dropped no inbound messages")
	}
	if rb.SuppressedCrashed < 1 {
		t.Error("crashed agent suppressed no outbound messages")
	}
	// Coordination resumed after the crash window: Tunes flowed again.
	if rb.Heartbeats == 0 || coord.TunesApplied == 0 {
		t.Errorf("heartbeats=%d tunesApplied=%d: plane did not reconverge",
			rb.Heartbeats, coord.TunesApplied)
	}
}

// TestChaosOverload drives the deployment past saturation (2.5× sessions,
// bounded tier queues) while a partition then a crash window hit the
// coordination mailbox. The overload contract mirrors the PR 2 chaos
// contract: coordinated shedding — whose control loop rides the faulty
// mailbox — must never end up more than 5% worse on goodput than
// uncoordinated local shedding under the same fault plan, and the
// admission counters must reconcile exactly per tier.
func TestChaosOverload(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	plans := []struct {
		name string
		plan FaultPlan
	}{
		{"partition", FaultPlan{Partitions: []Partition{
			{Start: 12 * time.Second, Duration: 6 * time.Second},
		}}},
		{"crash", FaultPlan{Crashes: []CrashWindow{
			{Island: "ixp", Start: 15 * time.Second, Duration: 5 * time.Second},
		}}},
	}
	var points []MatrixPoint
	for _, sc := range plans {
		for _, coord := range []bool{false, true} {
			name := sc.name + "/local"
			if coord {
				name = sc.name + "/coordinated"
			}
			points = append(points, MatrixPoint{Name: name, Config: chaosOverloadCfg(1, sc.plan, coord), Coordinated: coord})
		}
	}
	res, err := RunMatrix(Matrix[RubisRun]{Points: points, Project: wholeRun}, SweepOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	for i, sc := range plans {
		sc := sc
		local, coord := res.Rows[2*i], res.Rows[2*i+1]
		t.Run(sc.name, func(t *testing.T) {
			// Goodput floor, ledger conservation, bounded p95, and
			// at-most-once delivery all ride the oracle catalog, with the
			// local-shedding run as the baseline.
			cfg := chaosOverloadCfg(1, sc.plan, true)
			requireInvariants(t, ChaosRun{Config: cfg, Coordinated: true, Run: &coord, Baseline: &local})
			// Non-vacuity: the fault plan really hit the coordination
			// plane (partitions eat mailbox messages; crash windows show
			// up as lease expiries), and the overload plane really shed
			// on both sides of the comparison.
			if len(sc.plan.Partitions) > 0 && coord.Robustness.FaultDrops == 0 {
				t.Error("partition plan dropped nothing; comparison is vacuous")
			}
			if len(sc.plan.Crashes) > 0 && coord.Robustness.LeaseExpiries == 0 {
				t.Error("crash plan expired no leases; comparison is vacuous")
			}
			for _, run := range []struct {
				name string
				r    *RubisRun
			}{{"local", &local}, {"coordinated", &coord}} {
				ov := run.r.Overload
				if ov.QueueShed+ov.Expired+ov.IXPShed == 0 {
					t.Errorf("%s run shed nothing at 2.5x load", run.name)
				}
			}
			if coord.Overload.TriggersSent == 0 {
				t.Error("coordinated run raised no overload Triggers")
			}
		})
	}
}

// Per-tier admission counters must reconcile exactly at drain:
// offered == served + shed + expired once the run has ended (the sim
// drains every queued request or expires it).
func TestChaosOverloadReconciliation(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	cfg := chaosRubisCfg(1)
	cfg.LoadFactor = 2.5
	cfg.RequestTimeout = 2 * time.Second
	cfg.Overload = &OverloadControl{
		QueueCap: 64, QueueDeadline: 300 * time.Millisecond, Threshold: 150 * time.Millisecond,
		Coordinated: true,
	}
	r := RunRubis(cfg, true)
	ov := r.Overload
	if ov.QueueShed+ov.Expired == 0 {
		t.Fatal("no tier shed or expired anything at 2.5x load; reconciliation is vacuous")
	}
	// The per-tier conservation law is the overload-ledger oracle.
	requireInvariants(t, ChaosRun{Config: cfg, Coordinated: true, Run: r})
}

// Whole-run determinism: same seed, same fault plan, same reliable plane
// — byte-identical results, robustness counters included.
func TestChaosDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	run := func() *RubisRun {
		cfg := chaosRubisCfg(1)
		cfg.Robust = true
		cfg.Faults = &FaultPlan{
			Seed: 7, LossRate: 0.15, DupRate: 0.05, ReorderRate: 0.05,
			Partitions: []Partition{{Start: 15 * time.Second, Duration: 3 * time.Second}},
		}
		return RunRubis(cfg, true)
	}
	first, second := run(), run()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("identical chaos runs diverged:\n first: %+v\nsecond: %+v", first, second)
	}
	if first.Robustness.FaultDrops == 0 {
		t.Fatal("chaos plan injected nothing; determinism check is vacuous")
	}
}
