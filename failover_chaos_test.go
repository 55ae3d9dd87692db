package repro

// Failover chaos tests: controller replication must make the coordination
// plane survive its own controller dying. A mid-run primary crash costs at
// most a bounded election window, not the rest of the run; the whole
// failover — checkpoints, election, anti-entropy — replays byte-identically
// from the flight log; and the failover matrix is deterministic across
// sweep worker counts.

import (
	"bytes"
	"runtime"
	"testing"
	"time"
)

// failoverChaosPlan is the canonical mid-run primary death: the initial
// primary (replica 0) crashes at 15s and stays down for 10s.
func failoverChaosPlan() *FaultPlan {
	return &FaultPlan{ControllerCrashes: []ReplicaWindow{
		{Replica: 0, Start: 15 * time.Second, Duration: 10 * time.Second},
	}}
}

// failoverRampPlan kills the primary at the end of warmup and keeps it
// down for most of the run. Under overload this is the worst-case window:
// the coordinated shed loop earns its goodput during the post-warmup
// session ramp, exactly when a solo controller would be dead.
func failoverRampPlan() *FaultPlan {
	return &FaultPlan{ControllerCrashes: []ReplicaWindow{
		{Replica: 0, Start: 10 * time.Second, Duration: 25 * time.Second},
	}}
}

// TestChaosControllerCrash kills the primary controller mid-run. The
// availability contract: with replication, goodput stays within 5% of the
// crash-free coordinated run at 1x load; at 2x load (where the coordinated
// shed loop is actively earning its keep) the replicated group beats the
// solo controller suffering the same crash — the degraded baseline that
// loses coordination for the whole window.
//
// The 1x points run the paper's weight-tuning scheme; the 2x points turn
// it off and drive the coordinated overload plane instead, mirroring the
// overload ablation's isolation (the shed loop is the coordination that
// pays at saturation, and its outage cost is what replication buys back).
func TestChaosControllerCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	// 1x: weight-tuning coordination, mid-run 10s primary death.
	replicated := func(plan *FaultPlan) RubisConfig {
		cfg := chaosRubisCfg(1)
		cfg.Failover = &FailoverControl{Replicas: 3}
		cfg.Faults = plan
		return cfg
	}
	// 2x: coordinated NIC shedding under saturation, with the primary dead
	// from the end of warmup through the session ramp.
	saturated := func(replicas int) RubisConfig {
		cfg := chaosRubisCfg(1)
		cfg.Failover = &FailoverControl{Replicas: replicas}
		cfg.Faults = failoverRampPlan()
		cfg.LoadFactor = 2
		cfg.RequestTimeout = 2 * time.Second
		cfg.Overload = &OverloadControl{
			QueueCap: 64, QueueDeadline: 300 * time.Millisecond,
			Threshold: 150 * time.Millisecond, Coordinated: true,
		}
		return cfg
	}
	res, err := RunMatrix(Matrix[RubisRun]{Project: wholeRun, Points: []MatrixPoint{
		{Name: "clean/replicated", Config: replicated(nil), Coordinated: true},
		{Name: "crash/replicated", Config: replicated(failoverChaosPlan()), Coordinated: true},
		{Name: "crash2x/replicated", Config: saturated(3)},
		{Name: "crash2x/solo", Config: saturated(1)},
	}}, SweepOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	clean, crash, crash2x, solo2x := res.Rows[0], res.Rows[1], res.Rows[2], res.Rows[3]

	// 1x contract: a primary death costs a bounded election window, so the
	// run stays within the oracle catalog's goodput floor (and bounded
	// mean) of the crash-free coordinated run.
	crashCfg := chaosRubisCfg(1)
	crashCfg.Failover = &FailoverControl{Replicas: 3}
	crashCfg.Faults = failoverChaosPlan()
	requireInvariants(t, ChaosRun{Config: crashCfg, Coordinated: true, Run: &crash, Baseline: &clean})

	// The failover really happened: replica 0 died, the lowest-id live
	// standby (1) was promoted, state came from checkpoints, and the new
	// primary reconciled against the agents before routing.
	fo := crash.Failover
	if fo.Crashes != 1 || fo.Restarts != 1 {
		t.Errorf("crashes=%d restarts=%d, want 1/1", fo.Crashes, fo.Restarts)
	}
	if fo.Promotions < 1 || fo.Primary != 1 {
		t.Errorf("promotions=%d final primary=%d, want a promotion to replica 1", fo.Promotions, fo.Primary)
	}
	if fo.Checkpoints == 0 || fo.CheckpointBytes == 0 {
		t.Errorf("checkpoints=%d bytes=%d: the standby promoted from nothing", fo.Checkpoints, fo.CheckpointBytes)
	}
	if fo.Reconciliations < 2 {
		t.Errorf("reconciliations=%d, want both islands reconciled at promotion", fo.Reconciliations)
	}
	if clean.Failover.Promotions != 0 || clean.Failover.NoPrimaryDrops != 0 {
		t.Errorf("clean run promoted (%d) or dropped (%d); fault plan leaked",
			clean.Failover.Promotions, clean.Failover.NoPrimaryDrops)
	}

	// 2x contract: the replicated group strictly beats the solo controller
	// under the same crash — losing the shed loop for a ~1s election
	// window must cost less than losing it for the whole overload ramp.
	if crash2x.Throughput <= solo2x.Throughput {
		t.Errorf("replicated goodput at 2x %.1f r/s not above solo-controller %.1f r/s",
			crash2x.Throughput, solo2x.Throughput)
	}
	// Non-vacuity: the replicated run kept shedding at the NIC through the
	// crash window while the solo controller's outage silenced the loop,
	// and the solo outage dwarfs the replicated group's election window.
	if crash2x.Overload.IXPShed == 0 {
		t.Error("replicated 2x run never shed at the NIC; the loop was not exercised")
	}
	if solo2x.Overload.IXPShed >= crash2x.Overload.IXPShed {
		t.Errorf("solo NIC shed %d >= replicated %d; the solo outage never silenced the shed loop",
			solo2x.Overload.IXPShed, crash2x.Overload.IXPShed)
	}
	if solo2x.Failover.NoPrimaryDrops <= crash2x.Failover.NoPrimaryDrops {
		t.Errorf("solo outage dropped %d coordination messages vs replicated %d; solo run never really lost its controller",
			solo2x.Failover.NoPrimaryDrops, crash2x.Failover.NoPrimaryDrops)
	}
}

// TestChaosFailoverReplay records a full failover run — checkpoints,
// primary crash, election, anti-entropy rejoin — and replays the flight
// log: every coordination event, the failover category included, must
// reproduce byte-identically from the same config and seed.
func TestChaosFailoverReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	cfg := chaosRubisCfg(1)
	cfg.Failover = &FailoverControl{Replicas: 3}
	cfg.Faults = failoverChaosPlan()

	var flightLog bytes.Buffer
	coord, err := RecordRubis(cfg, true, &flightLog)
	if err != nil {
		t.Fatalf("RecordRubis: %v", err)
	}
	rep, err := ReplayRubis(flightLog.Bytes())
	if err != nil {
		t.Fatalf("ReplayRubis: %v", err)
	}
	// Zero-divergence is the replay oracle; lease monotonicity and weight
	// clamping ride along.
	requireInvariants(t, ChaosRun{Config: cfg, Coordinated: true, Run: coord, Replay: rep})
	if coord.Failover.Promotions < 1 {
		t.Error("recorded run had no promotion; replay check is vacuous")
	}
	if coord.Failover.Checkpoints == 0 {
		t.Error("recorded run wrote no checkpoints; replay check is vacuous")
	}
}

// TestFailoverMatrixParallelDeterminism runs the failover matrix
// sequentially and with an 8-worker pool and requires byte-identical
// canonical JSON.
func TestFailoverMatrixParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	run := func(workers int) (*MatrixResult[FailoverRow], []byte) {
		res, err := RunMatrix(FailoverMatrix(chaosMatrixCfg()), SweepOptions{Workers: workers, Seed: 1})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		blob, err := res.Sweep.DeterministicJSON()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res, blob
	}

	seq, seqJSON := run(1)
	par, parJSON := run(8)
	if string(seqJSON) != string(parJSON) {
		t.Fatalf("parallel failover sweep diverged from sequential:\nworkers=1:\n%s\nworkers=8:\n%s", seqJSON, parJSON)
	}
	if want := len(FailoverMatrix(chaosMatrixCfg()).Points); len(par.Rows) != want {
		t.Fatalf("matrix produced %d rows, want %d", len(par.Rows), want)
	}

	// Elections must actually fire inside the matrix, or the byte-compare
	// proves nothing about failover determinism.
	crashRow, ok := par.Row("primary crash/replicated")
	if !ok {
		t.Fatal("matrix lost its primary crash/replicated point")
	}
	if crashRow.Promotions == 0 {
		t.Error("primary crash scenario drove no promotions; determinism check is near-vacuous")
	}
	if crashRow.Checkpoints == 0 {
		t.Error("no checkpoints in the crash scenario; determinism check is near-vacuous")
	}

	if runtime.NumCPU() >= 4 && par.Sweep.Elapsed > 0 && seq.Sweep.Elapsed > par.Sweep.Elapsed {
		t.Logf("sequential %v, 8 workers %v (%.1fx)",
			seq.Sweep.Elapsed, par.Sweep.Elapsed, float64(seq.Sweep.Elapsed)/float64(par.Sweep.Elapsed))
	}
}
