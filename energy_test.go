package repro

// Energy subsystem integration tests: parallel-sweep determinism of the
// energy ablation, flight record/replay of a governed run, and the two
// energy oracles (ledger conservation, power-cap streak bound) judged
// against real runs and against doctored bundles that must fail.

import (
	"bytes"
	"testing"
	"time"
)

func energyMatrixCfg() RubisConfig {
	// Short runs: 9 matrix points at 6 simulated seconds keep the test
	// within a few wall-clock seconds per sweep.
	return RubisConfig{Seed: 1, Duration: 6 * time.Second, Warmup: 2 * time.Second}
}

// TestEnergyMatrixParallelDeterminism runs the energy ablation
// sequentially and with an 8-worker pool and requires byte-identical
// canonical JSON — trial order, seeds, joules ledgers, QoS counters.
func TestEnergyMatrixParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	run := func(workers int) (*MatrixResult[EnergyRow], []byte) {
		res, err := RunMatrix(EnergyMatrix(energyMatrixCfg()), SweepOptions{Workers: workers, Seed: 1})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		blob, err := res.Sweep.DeterministicJSON()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res, blob
	}

	_, seqJSON := run(1)
	par, parJSON := run(8)
	if string(seqJSON) != string(parJSON) {
		t.Fatalf("parallel sweep diverged from sequential:\nworkers=1:\n%s\nworkers=8:\n%s", seqJSON, parJSON)
	}
	if want := len(EnergyMatrix(energyMatrixCfg()).Points); len(par.Rows) != want {
		t.Fatalf("matrix produced %d rows, want %d", len(par.Rows), want)
	}

	// The matrix must actually exercise the DVFS machinery, or the
	// byte-compare proves nothing interesting.
	off, ok := par.Row("off/1x")
	if !ok {
		t.Fatal("matrix lost its off/1x point")
	}
	if off.Transitions != 0 {
		t.Errorf("governor off committed %d transitions, want 0", off.Transitions)
	}
	if off.PlatformJoules <= 0 {
		t.Error("metering-only run accrued no joules")
	}
	coord, ok := par.Row("coordinated/0.5x")
	if !ok {
		t.Fatal("matrix lost its coordinated/0.5x point")
	}
	if coord.Transitions == 0 {
		t.Error("coordinated governor at light load committed no transitions; determinism check is near-vacuous")
	}
}

// TestEnergyFlightReplay pins an energy-governed run to the flight
// recorder: governor decisions, DVFS transitions, and pool gatings must
// record and replay with zero divergence — and the run itself must satisfy
// the oracle catalog, including energy conservation.
func TestEnergyFlightReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	cfg := RubisConfig{
		Seed: 1, Duration: 6 * time.Second, Warmup: 2 * time.Second,
		LoadFactor: 0.5, // light load so the governor actually downshifts
		Energy:     &EnergyControl{Governor: EnergyGovCoordinated},
	}

	var buf bytes.Buffer
	run, err := RecordRubis(cfg, true, &buf)
	if err != nil {
		t.Fatalf("RecordRubis: %v", err)
	}
	if run.Energy.Transitions == 0 {
		t.Error("governed run committed no transitions; replay check is near-vacuous")
	}
	requireInvariants(t, ChaosRun{Config: cfg, Coordinated: true, Run: run})

	rep, err := ReplayRubis(buf.Bytes())
	if err != nil {
		t.Fatalf("ReplayRubis: %v", err)
	}
	if rep.Divergence != nil {
		t.Errorf("energy-governed run does not replay deterministically: %v", rep.Divergence)
	}
	if rep.Events == 0 {
		t.Error("energy-governed run recorded no flight events")
	}
}

// TestEnergyConserveOracle: the conservation oracle passes a real run and
// fails a doctored one — island ledgers that do not sum to the platform
// ledger are a violation, not a rounding artifact.
func TestEnergyConserveOracle(t *testing.T) {
	cfg := RubisConfig{
		Seed: 1, Duration: 4 * time.Second, Warmup: 1 * time.Second,
		Energy: &EnergyControl{Governor: EnergyGovOndemand},
	}
	run := RunRubis(cfg, true)
	if run.Energy.PlatformJoules <= 0 {
		t.Fatal("energy run accrued no joules")
	}
	requireInvariants(t, ChaosRun{Config: cfg, Coordinated: true, Run: run})

	leaky := *run
	leaky.Energy.X86Joules += 1 // destroy a joule
	if fails := FailedOracles(CheckInvariants(ChaosRun{Config: cfg, Coordinated: true, Run: &leaky})); len(fails) == 0 {
		t.Error("conservation oracle passed a doctored ledger")
	}
}

// TestPowerCapOracle: the cap-streak oracle passes a real budgeted run and
// fails both a sustained post-convergence excursion and a run that never
// converges.
func TestPowerCapOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	r := RunPowerCap(PowerCapConfig{Seed: 1, Duration: 20 * time.Second})
	if len(r.Series) == 0 {
		t.Fatal("power-cap run recorded no series")
	}
	if r.PlatformJoules <= 0 {
		t.Fatal("power-cap run accrued no joules")
	}
	requireInvariants(t, ChaosRun{PowerCap: r})

	// A sustained excursion after convergence must fail.
	excursion := *r
	excursion.Series = append([]SeriesPoint(nil), r.Series...)
	for i := len(excursion.Series) - powerCapMaxStreak - 1; i < len(excursion.Series); i++ {
		excursion.Series[i].Value = excursion.CapWatts + 25
	}
	if fails := FailedOracles(CheckInvariants(ChaosRun{PowerCap: &excursion})); len(fails) == 0 {
		t.Error("cap oracle passed a sustained post-convergence excursion")
	}

	// A run that never gets under its cap must fail too.
	hot := *r
	hot.Series = append([]SeriesPoint(nil), r.Series...)
	for i := range hot.Series {
		hot.Series[i].Value = hot.CapWatts + 25
	}
	if fails := FailedOracles(CheckInvariants(ChaosRun{PowerCap: &hot})); len(fails) == 0 {
		t.Error("cap oracle passed a run that never converged")
	}
}
