package main

import (
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro"
	"repro/internal/flight"
	"repro/internal/sweep"
)

// workload is one benchmark input: a seeded experiment run through the
// public repro facade.
type workload struct {
	name string
	why  string
	// prepare does everything a CLI invocation does before the first
	// simulated event: read and compile the spec, expand the points.
	// A positive horizon replaces the standard simulated length; traced
	// selects the traced child's variant, which may record flight logs.
	prepare func(seed int64, horizon time.Duration, traced bool) (*rep, error)
}

// rep is a prepared repetition, ready to simulate.
type rep struct {
	simSeconds float64
	run        func() (*outcome, error)
}

// outcome is what one simulation of a rep produced.
type outcome struct {
	// digest is the SHA-256 of the canonical JSON of the simulated output.
	digest string
	// failures lists every correctness check the run failed.
	failures []string
	// counts are the exact per-layer counts the run's results expose.
	counts map[string]float64
	// observe, when set, decodes and replays what the run recorded. Only
	// the traced child calls it, after profiling stops, so the
	// observation costs show in no measured number but flight.replay_s.
	observe func() error
}

// workloads lists the benchmark's inputs in report order.
var workloads = []workload{
	{
		name:    "paper-rubis",
		why:     "closed-loop RUBiS, uncoordinated vs coordinated (Tables 1-2); host time is IXP polling and event dispatch",
		prepare: preparePaperRubis,
	},
	{
		name:    "overload-chaos",
		why:     "3x overload under lossy faults with shed Triggers over ack/retry and a flight log; reliable, overload and flight layers",
		prepare: prepareOverloadChaos,
	},
	{
		name:    "scenario-sweep",
		why:     "the pinned sweep's 6 trace-driven scenarios x 2 planes on the worker pool; sweep engine and per-trial setup",
		prepare: prepareScenarioSweep,
	},
	{
		name:    "coord-scale",
		why:     "the bare event kernel at 2-256 islands, no IXP/xen/rubis code; queue depth and GC dominate",
		prepare: prepareCoordScale,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

//go:embed specs/*.json
var specs embed.FS

// loadSpec reads, parses and compiles a scenario spec for seed. The fault
// plan is re-seeded with it too, so every seed draws a new fault schedule.
func loadSpec(name string, seed int64, horizon time.Duration) (repro.RubisConfig, error) {
	data, err := specs.ReadFile("specs/" + name + ".json")
	if err != nil {
		return repro.RubisConfig{}, err
	}
	sc, err := repro.ParseScenario(data)
	if err != nil {
		return repro.RubisConfig{}, err
	}
	sc.Seed = seed
	if sc.Faults != nil {
		sc.Faults.Seed = seed
	}
	if horizon > 0 {
		rescale(&sc, horizon)
	}
	return sc.Compile()
}

// rescale shrinks every time in the scenario in proportion to a new total
// duration, so a short smoke run keeps the spec's shape.
func rescale(sc *repro.Scenario, horizon time.Duration) {
	k := float64(horizon) / float64(sc.Duration)
	scale := func(d time.Duration) time.Duration { return time.Duration(float64(d) * k) }
	sc.Duration = horizon
	sc.Warmup = scale(sc.Warmup)
	if sc.Faults != nil {
		for i := range sc.Faults.Partitions {
			p := &sc.Faults.Partitions[i]
			p.Start, p.Duration = scale(p.Start), scale(p.Duration)
		}
	}
}

func preparePaperRubis(seed int64, horizon time.Duration, traced bool) (*rep, error) {
	cfg, err := loadSpec("paper-rubis", seed, horizon)
	if err != nil {
		return nil, err
	}
	return &rep{
		simSeconds: 2 * cfg.Duration.Seconds(),
		run: func() (*outcome, error) {
			o := &outcome{counts: map[string]float64{}}
			var base, coord *repro.RubisRun
			if traced {
				// The traced rep records both planes; recording is
				// observational, so the digest must not change.
				var logs [2]bytes.Buffer
				var err error
				if base, err = repro.RecordRubis(cfg, false, &logs[0]); err != nil {
					return nil, err
				}
				if coord, err = repro.RecordRubis(cfg, true, &logs[1]); err != nil {
					return nil, err
				}
				o.observe = func() error { return flightCounts(o.counts, logs[0].Bytes(), logs[1].Bytes()) }
			} else {
				base, coord = repro.CompareRubis(cfg)
			}
			o.judge("base", repro.ChaosRun{Config: cfg, Run: base})
			o.judge("coord", repro.ChaosRun{Config: cfg, Coordinated: true, Run: coord, Baseline: base})
			rubisCounts(o.counts, base, coord)
			return o, o.setDigest([]*repro.RubisRun{base, coord})
		},
	}, nil
}

func prepareOverloadChaos(seed int64, horizon time.Duration, _ bool) (*rep, error) {
	cfg, err := loadSpec("overload-chaos", seed, horizon)
	if err != nil {
		return nil, err
	}
	return &rep{
		simSeconds: cfg.Duration.Seconds(),
		run: func() (*outcome, error) {
			var log bytes.Buffer
			run, err := repro.RecordRubis(cfg, true, &log)
			if err != nil {
				return nil, err
			}
			o := &outcome{counts: map[string]float64{}}
			o.judge("coord", repro.ChaosRun{Config: cfg, Coordinated: true, Run: run})
			rubisCounts(o.counts, run)
			o.observe = func() error {
				if err := flightCounts(o.counts, log.Bytes()); err != nil {
					return err
				}
				start := time.Now()
				rp, err := repro.ReplayRubis(log.Bytes())
				if err != nil {
					return err
				}
				o.counts["flight.replay_s"] = time.Since(start).Seconds()
				o.judge("replay", repro.ChaosRun{Replay: rp})
				return nil
			}
			logSum := sha256.Sum256(log.Bytes())
			return o, o.setDigest(struct {
				Run    *repro.RubisRun
				Flight string
			}{run, hex.EncodeToString(logSum[:])})
		},
	}, nil
}

// scenarioTrialDur is the pinned bench sweep's trial length, so seed 1
// reproduces BENCH_sweep.json's rep-0 rows.
const scenarioTrialDur = 20 * time.Second

// benchSweepFile is the committed bench-sweep baseline, read from the
// repository root.
const benchSweepFile = "BENCH_sweep.json"

func prepareScenarioSweep(seed int64, horizon time.Duration, _ bool) (*rep, error) {
	dur := scenarioTrialDur
	if horizon > 0 {
		dur = horizon
	}
	cfg := repro.RubisConfig{Seed: seed, Duration: dur}
	for _, sc := range repro.ScenarioCatalog(dur) {
		sc.Seed = seed
		if _, err := sc.Compile(); err != nil {
			return nil, err
		}
	}
	points := repro.ScenarioMatrixPoints(cfg)
	pin := seed == 1 && horizon == 0
	return &rep{
		simSeconds: float64(len(points)) * dur.Seconds(),
		run: func() (*outcome, error) {
			res, err := repro.RunScenarioMatrix(cfg, repro.SweepOptions{Workers: runtime.GOMAXPROCS(0), Reps: 1, Seed: seed})
			if err != nil {
				return nil, err
			}
			o := &outcome{counts: map[string]float64{}}
			sweepCounts(o.counts, res)
			if pin {
				if err := o.checkPinnedRows(res.Sweep); err != nil {
					return nil, err
				}
			}
			det, err := res.Sweep.DeterministicJSON()
			if err != nil {
				return nil, err
			}
			sum := sha256.Sum256(det)
			o.digest = hex.EncodeToString(sum[:])
			return o, nil
		},
	}, nil
}

// checkPinnedRows compares every trial with the rep-0 row of the same point
// in the committed bench-sweep baseline.
func (o *outcome) checkPinnedRows(res *sweep.RunResult) error {
	base, err := sweep.LoadBenchReport(benchSweepFile)
	if err != nil {
		return err
	}
	want := map[string]json.RawMessage{}
	for _, r := range base.Results {
		if r.Rep == 0 {
			want[r.Point] = r.Data
		}
	}
	for _, t := range res.Trials {
		w, ok := want[t.Point]
		if !ok {
			o.failures = append(o.failures, fmt.Sprintf("%s: point %s missing", benchSweepFile, t.Point))
			continue
		}
		if !sameJSON(w, t.Data) {
			o.failures = append(o.failures, fmt.Sprintf("%s: point %s differs from the rep-0 row", benchSweepFile, t.Point))
		}
	}
	return nil
}

func sameJSON(a, b []byte) bool {
	var ca, cb bytes.Buffer
	if json.Compact(&ca, a) != nil || json.Compact(&cb, b) != nil {
		return false
	}
	return bytes.Equal(ca.Bytes(), cb.Bytes())
}

// Coordination-scalability shape: the paper's 2-256 island sweep at 200
// msg/s per island; RunCoordScalability drains each point for a further
// 10 simulated seconds. Points run 10 s, the coordscale CLI's default, so
// a 25-second measurement holds about ten reps of this memory-bound
// workload, whose single reps spread most; the star/256 backlog still
// reaches 300k pending events.
const (
	scaleDur   = 10 * time.Second
	scaleDrain = 10 * time.Second
	scaleRate  = 200
)

var scaleIslands = []int{2, 4, 8, 16, 32, 64, 128, 256}

func prepareCoordScale(seed int64, horizon time.Duration, _ bool) (*rep, error) {
	cfg := repro.ScalabilityConfig{Seed: seed, Islands: scaleIslands, RatePerIsland: scaleRate, Duration: scaleDur, Workers: 1}
	if horizon > 0 {
		cfg.Duration = horizon
	}
	points := 2 * len(cfg.Islands) // star and direct
	return &rep{
		simSeconds: float64(points) * (cfg.Duration + scaleDrain).Seconds(),
		run: func() (*outcome, error) {
			pts := repro.RunCoordScalability(cfg)
			o := &outcome{counts: map[string]float64{}}
			for _, p := range pts {
				o.counts["scale.routed_per_s"] += p.RoutedPerSec
			}
			return o, o.setDigest(pts)
		},
	}, nil
}

// judge runs the invariant catalog and records every non-skipped failure.
func (o *outcome) judge(label string, cr repro.ChaosRun) {
	for _, v := range repro.FailedOracles(repro.CheckInvariants(cr)) {
		o.failures = append(o.failures, fmt.Sprintf("%s: oracle %s: %s", label, v.Oracle, v.Detail))
	}
}

// setDigest hashes the canonical JSON of v (encoding/json sorts map keys).
func (o *outcome) setDigest(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(data)
	o.digest = hex.EncodeToString(sum[:])
	return nil
}

// rubisCounts sums the coordination, fault and overload counters the runs
// expose.
func rubisCounts(c map[string]float64, runs ...*repro.RubisRun) {
	for _, r := range runs {
		for _, t := range r.PerType {
			c["rubis.responses"] += float64(t.Count)
		}
		c["rubis.sessions"] += float64(r.SessionsCompleted)
		c["core.tunes_sent"] += float64(r.TunesSent + r.TunesSelfSent)
		c["core.tunes_applied"] += float64(r.TunesApplied)
		rb := r.Robustness
		c["core.data_sent"] += float64(rb.DataSent)
		c["core.retransmits"] += float64(rb.Retransmits)
		c["core.acks_sent"] += float64(rb.AcksSent)
		c["core.expired"] += float64(rb.Expired)
		c["core.heartbeats"] += float64(rb.Heartbeats)
		c["core.lease_expiries"] += float64(rb.LeaseExpiries)
		c["pcie.fault_drops"] += float64(rb.FaultDrops)
		c["pcie.duplicated"] += float64(rb.Duplicated)
		c["pcie.reordered"] += float64(rb.Reordered)
		ov := r.Overload
		web := ov.Tiers[0]
		c["overload.offered"] += float64(web.Offered)
		c["overload.served"] += float64(web.Served)
		c["overload.shed"] += float64(ov.QueueShed)
		c["overload.expired"] += float64(ov.Expired)
		c["overload.ixp_shed"] += float64(ov.IXPShed)
		c["overload.abandoned"] += float64(ov.Abandoned)
		c["overload.triggers"] += float64(ov.TriggersSent)
	}
	if d := c["core.data_sent"]; d > 0 {
		c["core.retransmit_ratio"] = c["core.retransmits"] / d
	}
	if off := c["overload.offered"]; off > 0 {
		c["overload.served_ratio"] = c["overload.served"] / off
	}
	delete(c, "overload.served")
}

// flightCounts tallies the recorded logs' events per category.
func flightCounts(c map[string]float64, logs ...[]byte) error {
	var events, size int
	for _, data := range logs {
		log, err := flight.Decode(data)
		if err != nil {
			return err
		}
		info := log.Info()
		for _, cc := range info.Categories {
			c["flight.events."+cc.Category.String()] += float64(cc.Count)
		}
		events += info.Events
		size += info.Bytes
	}
	if events > 0 {
		c["flight.bytes_per_event"] = float64(size) / float64(events)
	}
	return nil
}

// sweepCounts records the scenario rows' counters and the sweep engine's
// own timings.
func sweepCounts(c map[string]float64, res *repro.ScenarioMatrixResult) {
	for _, r := range res.Rows {
		c["rubis.sessions"] += float64(r.Sessions)
		c["overload.shed"] += float64(r.Shed)
		c["overload.abandoned"] += float64(r.Abandoned)
		c["core.retransmits"] += float64(r.Retransmits)
	}
	walls := make([]float64, 0, len(res.Sweep.Trials))
	var busy float64
	for _, t := range res.Sweep.Trials {
		walls = append(walls, t.Wall.Seconds())
		busy += t.Wall.Seconds()
	}
	sort.Float64s(walls)
	c["sweep.trial_wall_s.p50"] = median(walls)
	c["sweep.trial_wall_s.max"] = walls[len(walls)-1]
	if capacity := res.Sweep.Elapsed.Seconds() * float64(res.Sweep.Workers); capacity > 0 {
		c["sweep.busy_frac"] = busy / capacity
	}
}
