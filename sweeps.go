package repro

import (
	"fmt"
	"time"

	"repro/internal/sweep"
)

// SweepOptions shapes a parallel experiment sweep run through the
// internal/sweep engine: worker-pool size, repetitions (aggregated as
// mean ± 95% CI), result caching, and progress reporting. Results are
// byte-identical for any Workers value; see docs/sweeping.md.
type SweepOptions struct {
	// Workers is the trial pool size; <= 0 uses GOMAXPROCS.
	Workers int
	// Reps repeats every point with FNV-derived seed substreams
	// (repetition 0 keeps the base seed); <= 0 means 1.
	Reps int
	// Seed is the sweep's base seed (default 1).
	Seed int64
	// CacheDir, when non-empty, enables the content-hash result cache
	// rooted there (conventionally ".sweepcache").
	CacheDir string
	// Progress, when non-nil, receives a snapshot after every trial.
	Progress func(p sweep.Progress)
}

// options compiles the public options into engine options, opening the
// cache if requested. version is the experiment family's cache version.
func (o SweepOptions) options(version string) (sweep.Options, error) {
	opts := sweep.Options{
		Workers:      o.Workers,
		Reps:         o.Reps,
		Seed:         o.Seed,
		CacheVersion: version,
		Progress:     o.Progress,
	}
	if o.CacheDir != "" {
		cache, err := sweep.OpenCache(o.CacheDir)
		if err != nil {
			return sweep.Options{}, err
		}
		opts.Cache = cache
	}
	return opts, nil
}

// faultMatrixVersion invalidates cached fault-matrix trials when the
// experiment's meaning changes. Bump on any model or metric change.
// v2: overload scenarios (bounded queues + coordinated shedding under
// partition/crash) and shed counters joined the matrix.
const faultMatrixVersion = "fault-matrix-v2"

// FaultsRow is one trial of the fault-injection matrix: a RUBiS run under
// one fault scenario on one coordination plane.
type FaultsRow struct {
	Scenario string `json:"scenario"`
	// Plane is "none" (uncoordinated baseline), "fragile"
	// (fire-and-forget coordination), or "reliable" (ack/retry plane).
	Plane string `json:"plane"`

	Throughput float64 `json:"throughput"`
	MeanMs     float64 `json:"mean_ms"`

	Retransmits     uint64 `json:"retransmits"`
	Expired         uint64 `json:"expired"`
	Degradations    uint64 `json:"degradations"`
	BaselineReverts uint64 `json:"baseline_reverts"`

	// Load is the offered-load multiplier (0 means the calibrated 1×
	// population with no overload control armed).
	Load float64 `json:"load,omitempty"`
	// Shed counts requests rejected by the overload plane (tier queues,
	// deadline expiries, and the NIC admission gate combined).
	Shed uint64 `json:"shed,omitempty"`
}

// FaultMatrix returns the canonical fault-injection matrix for runs shaped
// by cfg (Duration, Warmup, Seed; Faults and Robust are set per point):
// the uncoordinated "baseline" first, then every fault scenario on the
// fragile and the reliable coordination plane ("loss 30%/reliable"), in
// stable order. The same matrix drives `reprobench -exp ablation-faults`,
// the chaos and parallel-determinism tests, and the pinned bench sweep.
func FaultMatrix(cfg RubisConfig) Matrix[FaultsRow] {
	dur := cfg.Duration
	scenarios := []struct {
		name string
		plan *FaultPlan
		load float64
	}{
		{"clean", nil, 0},
		{"loss 30%", &FaultPlan{LossRate: 0.3}, 0},
		{"bursts", &FaultPlan{LossRate: 0.05, BurstRate: 0.02, BurstLen: 16}, 0},
		{"chaos mix", &FaultPlan{
			LossRate: 0.15, DupRate: 0.1, ReorderRate: 0.1,
			SpikeRate: 0.05, JitterMax: 100 * time.Microsecond,
		}, 0},
		{"partition", &FaultPlan{Partitions: []Partition{
			{Start: dur / 4, Duration: dur / 4},
		}}, 0},
		{"ixp crash", &FaultPlan{Crashes: []CrashWindow{
			{Island: "ixp", Start: dur / 4, Duration: dur / 8},
		}}, 0},
		// Overload scenarios drive 2.5× the calibrated session population
		// into bounded tier queues while the same faults hit the
		// coordination plane — the regime where shedding must keep working
		// even as the shed loop's control messages are lost.
		{"overload+partition", &FaultPlan{Partitions: []Partition{
			{Start: dur / 4, Duration: dur / 4},
		}}, 2.5},
		{"overload+crash", &FaultPlan{Crashes: []CrashWindow{
			{Island: "ixp", Start: dur / 4, Duration: dur / 8},
		}}, 2.5},
	}
	base := cfg
	base.Faults, base.Robust = nil, false
	points := []MatrixPoint{{Name: "baseline", Config: base}}
	for _, sc := range scenarios {
		for _, plane := range []string{"fragile", "reliable"} {
			c := base
			c.Faults = sc.plan
			c.Robust = plane == "reliable"
			if sc.load > 0 {
				c = withOverloadStress(c, sc.load, c.Robust)
			}
			points = append(points, MatrixPoint{Name: sc.name + "/" + plane, Config: c, Coordinated: true})
		}
	}
	return Matrix[FaultsRow]{Version: faultMatrixVersion, Points: points, Project: func(p MatrixPoint, r *RubisRun) FaultsRow {
		scenario, plane := p.labels()
		if !p.Coordinated {
			plane = "none"
		}
		rb, ov := r.Robustness, r.Overload
		return FaultsRow{
			Scenario:        scenario,
			Plane:           plane,
			Throughput:      r.Throughput,
			MeanMs:          r.MeanOverTypes(),
			Retransmits:     rb.Retransmits,
			Expired:         rb.Expired,
			Degradations:    rb.Degradations,
			BaselineReverts: rb.BaselineReverts,
			Load:            p.Config.LoadFactor,
			Shed:            ov.QueueShed + ov.Expired + ov.IXPShed,
		}
	}}
}

// overloadMatrixVersion invalidates cached overload-matrix trials when
// the experiment's meaning changes.
const overloadMatrixVersion = "overload-matrix-v1"

// overloadStressTimeout is the client patience used by the overload
// ablation and the overload fault scenarios: long enough that the
// calibrated 1x population rarely abandons, short enough that queueing
// delay past saturation turns into abandoned (wasted) work.
const overloadStressTimeout = 2 * time.Second

// overloadStressKnobs is the tight admission envelope those experiments
// arm: queues shallow enough to bind past saturation and a queueing
// deadline well under the client timeout, so expiry sheds work the
// client would have abandoned anyway.
func overloadStressKnobs() OverloadControl {
	return OverloadControl{
		QueueCap:      64,
		QueueDeadline: 300 * time.Millisecond,
		Threshold:     150 * time.Millisecond,
	}
}

// withOverloadStress drives c at load× the calibrated population into the
// stress envelope with the coordinated shed loop closed, optionally
// behind mailbox circuit breakers.
func withOverloadStress(c RubisConfig, load float64, breaker bool) RubisConfig {
	c.LoadFactor = load
	c.RequestTimeout = overloadStressTimeout
	ov := overloadStressKnobs()
	ov.Coordinated = true
	ov.Breaker = breaker
	c.Overload = &ov
	return c
}

// OverloadRow is one trial of the overload ablation: a RUBiS run at one
// offered-load multiplier under one overload-control level.
type OverloadRow struct {
	Control string  `json:"control"`
	Load    float64 `json:"load"`

	// Goodput is served (non-shed) requests per second; ServedP95Ms the
	// p95 latency over served responses only.
	Goodput     float64 `json:"goodput"`
	ServedP95Ms float64 `json:"served_p95_ms"`

	QueueShed uint64 `json:"queue_shed"`
	Expired   uint64 `json:"expired"`
	IXPShed   uint64 `json:"ixp_shed"`
	Abandoned uint64 `json:"abandoned"`
	Triggers  uint64 `json:"triggers"`
	ShedTunes uint64 `json:"shed_tunes"`
}

// OverloadMatrix returns the overload ablation for runs shaped by cfg:
// every control level, weakest first — "none" (unbounded queues),
// "bounded" (tier queues with local shedding only), and "coordinated"
// (the full plane, which also sheds at the NIC before PCIe) — at 1×–4×
// the calibrated session population ("bounded/3x"), in stable order.
// The paper's weight-tuning scheme is left off for every trial so the
// matrix isolates the overload plane; coordinated trials still actuate
// weight boosts through the controller's Trigger translation.
func OverloadMatrix(cfg RubisConfig) Matrix[OverloadRow] {
	var points []MatrixPoint
	for _, control := range []string{"none", "bounded", "coordinated"} {
		for _, load := range []float64{1, 2, 3, 4} {
			c := cfg
			c.LoadFactor = load
			// Sessions abandon pages unanswered in 2s — identical client
			// behaviour for every control level, so the matrix isolates how
			// much server work each level wastes on abandoned pages. At 4x
			// load the uncontrolled baseline serves nothing in time at all
			// (goodput 0, p95 printed as 0 for lack of samples).
			c.RequestTimeout = overloadStressTimeout
			// The default knobs (cap 512, deadline 4s) are sized never to
			// bind at the calibrated population; the ablation stresses a
			// deliberately tight envelope so the control levels separate.
			c.Overload = nil
			if control != "none" {
				ov := overloadStressKnobs()
				ov.Coordinated = control == "coordinated"
				c.Overload = &ov
			}
			points = append(points, MatrixPoint{Name: fmt.Sprintf("%s/%gx", control, load), Config: c})
		}
	}
	return Matrix[OverloadRow]{Version: overloadMatrixVersion, Points: points, Project: func(p MatrixPoint, r *RubisRun) OverloadRow {
		control, _ := p.labels()
		ov := r.Overload
		return OverloadRow{
			Control:     control,
			Load:        p.Config.LoadFactor,
			Goodput:     r.Throughput,
			ServedP95Ms: ov.ServedP95Ms,
			QueueShed:   ov.QueueShed,
			Expired:     ov.Expired,
			IXPShed:     ov.IXPShed,
			Abandoned:   ov.Abandoned,
			Triggers:    ov.TriggersSent,
			ShedTunes:   ov.ShedTunes,
		}
	}}
}

// energyMatrixVersion invalidates cached energy-matrix trials when the
// experiment's meaning changes.
const energyMatrixVersion = "energy-matrix-v1"

// EnergyRow is one trial of the energy ablation: a RUBiS run at one
// offered-load multiplier under one governor policy.
type EnergyRow struct {
	Governor string  `json:"governor"`
	Load     float64 `json:"load"`

	PlatformJoules   float64 `json:"platform_joules"`
	X86Joules        float64 `json:"x86_joules"`
	IXPJoules        float64 `json:"ixp_joules"`
	JoulesPerRequest float64 `json:"joules_per_request"`

	Throughput  float64 `json:"throughput"`
	ServedP95Ms float64 `json:"served_p95_ms"`

	// QoSViolations counts control windows whose p95 exceeded the SLO
	// (out of QoSWindows observed); Transitions counts operating-point
	// changes committed across both islands.
	QoSViolations int `json:"qos_violations"`
	QoSWindows    int `json:"qos_windows"`
	Transitions   int `json:"transitions"`
}

// EnergyMatrix returns the energy ablation for runs shaped by cfg: every
// governor policy, weakest first — "off" (both islands pinned at their
// top operating points), "ondemand" (per-island latency-blind governors,
// the uncoordinated ablation), and "coordinated" (the QoS-constrained
// governor) — at each offered load ("ondemand/1x"), in stable order. The
// loads are half the calibrated population (latency slack on both
// islands), the calibrated 1× point (the x86 island saturated, slack
// visible only to a latency-aware governor), and 1.5× (past saturation,
// where no governor can meet the SLO). The paper's weight-tuning scheme
// stays on for every trial so the matrix isolates the energy governor.
func EnergyMatrix(cfg RubisConfig) Matrix[EnergyRow] {
	var points []MatrixPoint
	for _, gov := range []string{EnergyGovOff, EnergyGovOndemand, EnergyGovCoordinated} {
		for _, load := range []float64{0.5, 1, 1.5} {
			c := cfg
			c.LoadFactor = load
			c.Energy = &EnergyControl{Governor: gov}
			points = append(points, MatrixPoint{Name: fmt.Sprintf("%s/%gx", gov, load), Config: c, Coordinated: true})
		}
	}
	return Matrix[EnergyRow]{Version: energyMatrixVersion, Points: points, Project: func(p MatrixPoint, r *RubisRun) EnergyRow {
		e := r.Energy
		return EnergyRow{
			Governor:         p.Config.Energy.Governor,
			Load:             p.Config.LoadFactor,
			PlatformJoules:   e.PlatformJoules,
			X86Joules:        e.X86Joules,
			IXPJoules:        e.IXPJoules,
			JoulesPerRequest: e.JoulesPerRequest,
			Throughput:       r.Throughput,
			ServedP95Ms:      r.Overload.ServedP95Ms,
			QoSViolations:    e.QoSViolations,
			QoSWindows:       e.QoSWindows,
			Transitions:      e.Transitions,
		}
	}}
}

// Pinned bench-sweep configuration: the regression guard reruns exactly
// this sweep and compares against the committed BENCH_sweep.json. The
// simulated metrics are a pure function of these values, so any drift
// means the models changed; the wall-clock trial throughput seeds the
// perf trajectory.
const (
	BenchSweepName = "rubis-matrix"
	benchSweepSeed = 1
	benchSweepReps = 2
	benchSweepDur  = 20 * time.Second
)

// RunBenchSweep executes the pinned benchmark suite — the fault matrix,
// the trace-driven scenario matrix, and the energy matrix, merged into one
// report — and returns it. The cache is deliberately not used: the guard
// measures real trial throughput.
func RunBenchSweep(workers int, progress func(p sweep.Progress)) (*sweep.BenchReport, error) {
	cfg := RubisConfig{Seed: benchSweepSeed, Duration: benchSweepDur}
	opt := SweepOptions{Workers: workers, Reps: benchSweepReps, Seed: benchSweepSeed, Progress: progress}
	faults, err := RunMatrix(FaultMatrix(cfg), opt)
	if err != nil {
		return nil, err
	}
	scenarios, err := RunMatrix(ScenarioMatrix(cfg), opt)
	if err != nil {
		return nil, err
	}
	energy, err := RunMatrix(EnergyMatrix(cfg), opt)
	if err != nil {
		return nil, err
	}
	return sweep.MergeBenchReports(BenchSweepName,
		sweep.NewBenchReport(BenchSweepName, faults.Sweep),
		sweep.NewBenchReport(BenchSweepName, scenarios.Sweep),
		sweep.NewBenchReport(BenchSweepName, energy.Sweep),
	), nil
}

// failoverMatrixVersion invalidates cached failover-matrix trials when the
// experiment's meaning changes.
const failoverMatrixVersion = "failover-matrix-v1"

// FailoverRow is one trial of the controller-availability matrix: a RUBiS
// run with a solo or replicated controller under one controller fault
// scenario.
type FailoverRow struct {
	Scenario string `json:"scenario"`
	// Plane is "solo" (one controller, checkpointing but nothing to fail
	// over to) or "replicated" (three replicas, deterministic election).
	Plane string `json:"plane"`

	Throughput float64 `json:"throughput"`
	MeanMs     float64 `json:"mean_ms"`

	Checkpoints    uint64 `json:"checkpoints"`
	Promotions     uint64 `json:"promotions"`
	StaleDropped   uint64 `json:"stale_dropped"`
	NoPrimaryDrops uint64 `json:"no_primary_drops"`

	// Load is the offered-load multiplier (0 means the calibrated 1×
	// population with no overload control armed).
	Load float64 `json:"load,omitempty"`
	Shed uint64  `json:"shed,omitempty"`
}

// FailoverMatrix returns the controller-availability matrix for runs
// shaped by cfg (Duration, Warmup, Seed; Faults, Robust and Failover are
// set per point): every controller fault window on the solo (1 replica)
// and the replicated (3 replicas) controller plane
// ("primary crash/replicated"), in stable order. Replica 0 is the initial
// primary in every scenario. The same matrix drives `reprobench -exp
// ablation-failover` and the failover chaos tests.
func FailoverMatrix(cfg RubisConfig) Matrix[FailoverRow] {
	dur := cfg.Duration
	scenarios := []struct {
		name string
		plan *FaultPlan
		load float64
	}{
		{"clean", nil, 0},
		{"primary crash", &FaultPlan{ControllerCrashes: []ReplicaWindow{
			{Replica: 0, Start: dur / 4, Duration: dur / 4},
		}}, 0},
		{"primary partition", &FaultPlan{ControllerPartitions: []ReplicaWindow{
			{Replica: 0, Start: dur / 4, Duration: dur / 4},
		}}, 0},
		// The overload scenario kills the primary while 2x the calibrated
		// population keeps the shed loop busy — the promoted standby must
		// pick up both routing and overload translation.
		{"overload+crash", &FaultPlan{ControllerCrashes: []ReplicaWindow{
			{Replica: 0, Start: dur / 4, Duration: dur / 4},
		}}, 2.0},
	}
	var points []MatrixPoint
	for _, sc := range scenarios {
		for _, plane := range []struct {
			name     string
			replicas int
		}{{"solo", 1}, {"replicated", 3}} {
			c := cfg
			c.Faults = sc.plan
			c.Robust = true
			c.Failover = &FailoverControl{Replicas: plane.replicas}
			if sc.load > 0 {
				c = withOverloadStress(c, sc.load, true)
			}
			points = append(points, MatrixPoint{Name: sc.name + "/" + plane.name, Config: c, Coordinated: true})
		}
	}
	return Matrix[FailoverRow]{Version: failoverMatrixVersion, Points: points, Project: func(p MatrixPoint, r *RubisRun) FailoverRow {
		scenario, plane := p.labels()
		fo, ov := r.Failover, r.Overload
		return FailoverRow{
			Scenario:       scenario,
			Plane:          plane,
			Throughput:     r.Throughput,
			MeanMs:         r.MeanOverTypes(),
			Checkpoints:    fo.Checkpoints,
			Promotions:     fo.Promotions,
			StaleDropped:   fo.StaleDropped,
			NoPrimaryDrops: fo.NoPrimaryDrops,
			Load:           p.Config.LoadFactor,
			Shed:           ov.QueueShed + ov.Expired + ov.IXPShed,
		}
	}}
}
