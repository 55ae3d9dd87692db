package repro

// Parallel-sweep determinism: the whole point of the sweep engine is that
// fanning trials across a worker pool changes wall-clock time and nothing
// else. These tests pin that property end-to-end on the real fault matrix
// (full platform simulation under fault injection), not just on the
// engine's toy runners.

import (
	"bytes"
	"runtime"
	"testing"
	"time"
)

func chaosMatrixCfg() RubisConfig {
	// Short runs: 13 matrix points at 6 simulated seconds keep the test
	// within a few wall-clock seconds per sweep.
	return RubisConfig{Seed: 1, Duration: 6 * time.Second, Warmup: 2 * time.Second}
}

// TestFaultMatrixParallelDeterminism runs the full fault matrix
// sequentially and with an 8-worker pool and requires byte-identical
// canonical JSON — trial order, seeds, and every simulated metric.
func TestFaultMatrixParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	run := func(workers int) (*MatrixResult[FaultsRow], []byte) {
		res, err := RunMatrix(FaultMatrix(chaosMatrixCfg()), SweepOptions{Workers: workers, Seed: 1})
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
		t.Fatalf("parallel sweep diverged from sequential:\nworkers=1:\n%s\nworkers=8:\n%s", seqJSON, parJSON)
	}
	if want := len(FaultMatrix(chaosMatrixCfg()).Points); len(par.Rows) != want {
		t.Fatalf("matrix produced %d rows, want %d", len(par.Rows), want)
	}

	// The matrix must actually exercise the fault machinery, or the
	// byte-compare proves nothing interesting.
	lossy, ok := par.Row("loss 30%/reliable")
	if !ok {
		t.Fatal("matrix lost its loss 30%/reliable point")
	}
	if lossy.Retransmits == 0 {
		t.Error("loss scenario drove no retransmits; determinism check is near-vacuous")
	}

	// On a real multicore the pool should show a genuine speedup. The 3x
	// acceptance bar is checked on the reprobench CLI; here we only guard
	// against the pool serializing by accident, and skip the timing check
	// entirely on small machines where it would be noise.
	if runtime.NumCPU() >= 4 && par.Sweep.Elapsed > 0 {
		speedup := float64(seq.Sweep.Elapsed) / float64(par.Sweep.Elapsed)
		t.Logf("sequential %v, 8 workers %v (%.1fx)", seq.Sweep.Elapsed, par.Sweep.Elapsed, speedup)
		if speedup < 1.5 {
			t.Errorf("8-worker sweep only %.2fx faster than sequential on a %d-CPU machine",
				speedup, runtime.NumCPU())
		}
	}
}

// TestFaultMatrixFlightReplay pins the sweep ablation to the flight
// recorder: the "ixp crash" scenario on the reliable plane — the ablation
// point exercising the most machinery (crash drops, lease expiry,
// degradation, rejoin) — must record and replay with zero divergence. A
// parallel sweep being byte-identical to a sequential one (above) and each
// point replaying event-for-event are two independent determinism
// guarantees; this covers the second.
func TestFaultMatrixFlightReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	var point *MatrixPoint
	for _, p := range FaultMatrix(chaosMatrixCfg()).Points {
		if p.Name == "ixp crash/reliable" {
			point = &p
		}
	}
	if point == nil {
		t.Fatal("fault matrix lost its ixp crash/reliable point")
	}

	var buf bytes.Buffer
	run, err := RecordRubis(point.Config, point.Coordinated, &buf)
	if err != nil {
		t.Fatalf("RecordRubis: %v", err)
	}
	if run.Robustness.CrashDrops == 0 {
		t.Error("crash window dropped nothing; replay check is near-vacuous")
	}
	rep, err := ReplayRubis(buf.Bytes())
	if err != nil {
		t.Fatalf("ReplayRubis: %v", err)
	}
	if rep.Divergence != nil {
		t.Errorf("ablation point does not replay deterministically: %v", rep.Divergence)
	}
	if rep.Events == 0 {
		t.Error("ablation run recorded no flight events")
	}
}

// TestFaultMatrixRepsAndCache exercises the two remaining engine features
// against the real simulation: repetitions run on derived seed substreams
// (rep 0 preserving the base seed), and a warm cache reproduces the cold
// run byte for byte without executing any trials.
func TestFaultMatrixRepsAndCache(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	cfg := chaosMatrixCfg()
	cfg.Duration = 4 * time.Second
	cfg.Warmup = time.Second
	opt := SweepOptions{Workers: 4, Reps: 2, Seed: 1, CacheDir: t.TempDir()}

	cold, err := RunMatrix(FaultMatrix(cfg), opt)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Sweep.CacheHits != 0 {
		t.Fatalf("cold run hit the cache %d times", cold.Sweep.CacheHits)
	}
	if cold.Sweep.Trials[0].Seed != 1 {
		t.Errorf("repetition 0 seed = %d, want the base seed 1", cold.Sweep.Trials[0].Seed)
	}
	if cold.Sweep.Trials[1].Seed == 1 {
		t.Error("repetition 1 reused the base seed; substream derivation is broken")
	}
	if cold.Rows[0].Throughput == cold.Rows[1].Throughput {
		t.Error("both repetitions produced identical throughput; seeds likely not applied")
	}

	warm, err := RunMatrix(FaultMatrix(cfg), opt)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(warm.Sweep.Trials); warm.Sweep.CacheHits != want {
		t.Errorf("warm run hit the cache %d times, want %d", warm.Sweep.CacheHits, want)
	}
	coldJSON, _ := cold.Sweep.DeterministicJSON()
	warmJSON, _ := warm.Sweep.DeterministicJSON()
	if string(coldJSON) != string(warmJSON) {
		t.Error("cache replay diverged from the cold run")
	}
}
