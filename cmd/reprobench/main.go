// Command reprobench regenerates every table and figure of the paper's
// evaluation section, printing measured values beside the paper's reported
// numbers.
//
// Usage:
//
//	reprobench [-exp all|fig2|fig4|table1|table2|fig5|fig6|fig7|table3|
//	            powercap|scalability|ablation-latency|ablation-mechanisms|
//	            ablation-threshold|ablation-interrupt|ablation-loss|
//	            ablation-faults|ablation-overload|ablation-energy|
//	            ablation-failover|ablation-scenarios|sweep-bench]
//	           [-seed N] [-quick] [-workers N] [-reps N] [-cache DIR]
//	           [-json FILE] [-baseline FILE] [-ignore-wall]
//
// Every ablation matrix fans its trials across a worker pool (-workers,
// default GOMAXPROCS); results are byte-identical for any worker count.
// -reps repeats each point on derived seed substreams and reports
// mean ± 95% CI. -cache enables the content-hash result cache so re-runs
// skip already-computed points.
//
// -exp sweep-bench runs the pinned benchmark sweep and writes its report
// to -json (default BENCH_sweep.json); with -baseline it compares against
// a committed report and exits non-zero on simulated-metric drift, or on
// >±10% trial-throughput change unless -ignore-wall is set. It exits 2
// without running when -json (default included) names the baseline file.
//
// -quick shortens runs by ~4x for smoke testing; published numbers should
// use the defaults.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
	"unicode/utf8"

	"repro"
	"repro/internal/mplayer"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// benchConfig is the flag-derived configuration shared by every
// experiment function: seeds, run lengths, and sweep-engine knobs.
type benchConfig struct {
	seed     int64
	rubisDur time.Duration
	mediaDur time.Duration
	trigDur  time.Duration
	workers  int
	reps     int
	cacheDir string
}

// sweepOptions compiles the engine options for one experiment family run
// on the sweep engine directly, wiring progress reporting to stderr.
func (c benchConfig) sweepOptions(name, cacheVersion string) sweep.Options {
	opts := sweep.Options{
		Workers:      c.workers,
		Reps:         c.reps,
		Seed:         c.seed,
		CacheVersion: cacheVersion,
		Progress:     progressPrinter(name),
	}
	if c.cacheDir != "" {
		cache, err := sweep.OpenCache(c.cacheDir)
		if err != nil {
			die(err)
		}
		opts.Cache = cache
	}
	return opts
}

// facadeOptions mirrors sweepOptions for repro.RunMatrix.
func (c benchConfig) facadeOptions(name string) repro.SweepOptions {
	return repro.SweepOptions{
		Workers:  c.workers,
		Reps:     c.reps,
		Seed:     c.seed,
		CacheDir: c.cacheDir,
		Progress: progressPrinter(name),
	}
}

// progressPrinter reports sweep progress on stderr (stdout stays
// byte-identical across worker counts).
func progressPrinter(name string) func(p sweep.Progress) {
	return func(p sweep.Progress) {
		fmt.Fprintf(os.Stderr, "\r%s: %d/%d trials (%d cached) %.1fs ",
			name, p.Done, p.Total, p.Cached, p.Elapsed.Seconds())
		if p.Done == p.Total {
			fmt.Fprintln(os.Stderr)
		}
	}
}

func die(err error) {
	fmt.Fprintf(os.Stderr, "reprobench: %v\n", err)
	os.Exit(1)
}

func main() {
	exp := flag.String("exp", "all", "experiment to run")
	seed := flag.Int64("seed", 1, "simulation seed")
	quick := flag.Bool("quick", false, "short runs for smoke testing")
	workers := flag.Int("workers", 0, "sweep worker-pool size (0 = GOMAXPROCS)")
	reps := flag.Int("reps", 1, "repetitions per sweep point (mean ± 95% CI)")
	cacheDir := flag.String("cache", "", "content-hash result cache directory (e.g. .sweepcache; empty = off)")
	jsonPath := flag.String("json", "", "also write machine-readable results to this file")
	baseline := flag.String("baseline", "", "sweep-bench: compare against this committed BENCH_sweep.json")
	ignoreWall := flag.Bool("ignore-wall", false, "sweep-bench: skip the wall-clock throughput comparison")
	flag.Parse()

	cfg := benchConfig{
		seed:     *seed,
		rubisDur: 130 * time.Second,
		mediaDur: 60 * time.Second,
		trigDur:  180 * time.Second,
		workers:  *workers,
		reps:     *reps,
		cacheDir: *cacheDir,
	}
	if *quick {
		cfg.rubisDur, cfg.mediaDur, cfg.trigDur = 40*time.Second, 20*time.Second, 60*time.Second
	}

	if *exp == "sweep-bench" {
		runSweepBench(cfg, *jsonPath, *baseline, *ignoreWall)
		return
	}

	// The RUBiS tables and figures share one base/coordinated pair; compute
	// it lazily so single-experiment invocations of fig6 etc. stay fast.
	collected := &repro.Results{}
	var rubisBase, rubisCoord *repro.RubisRun
	rubisPair := func() (*repro.RubisRun, *repro.RubisRun) {
		if rubisBase == nil {
			fmt.Fprintf(os.Stderr, "running RUBiS base + coordinated (%v simulated each)...\n", cfg.rubisDur)
			rubisBase, rubisCoord = repro.CompareRubis(repro.RubisConfig{Seed: cfg.seed, Duration: cfg.rubisDur})
			collected.RubisBase, collected.RubisCoord = rubisBase, rubisCoord
		}
		return rubisBase, rubisCoord
	}

	run := map[string]func(){
		"fig2": func() {
			base, _ := rubisPair()
			fmt.Println(repro.FormatFig2(base))
		},
		"fig4": func() {
			base, coord := rubisPair()
			fmt.Println(repro.FormatFig4(base, coord))
		},
		"table1": func() {
			base, coord := rubisPair()
			fmt.Println(repro.FormatTable1(base, coord))
		},
		"table2": func() {
			base, coord := rubisPair()
			fmt.Println(repro.FormatTable2(base, coord))
		},
		"fig5": func() {
			base, coord := rubisPair()
			fmt.Println(repro.FormatFig5(base, coord))
		},
		"fig6": func() {
			collected.MplayerQoS = repro.RunMplayerQoS(cfg.seed, cfg.mediaDur)
			fmt.Println(repro.FormatFig6(collected.MplayerQoS))
		},
		"fig7": func() {
			base, coord := repro.RunMplayerTrigger(cfg.seed, cfg.trigDur)
			collected.TriggerBase, collected.TriggerCoord = base, coord
			fmt.Println(repro.FormatFig7(base, coord))
		},
		"table3": func() {
			collected.Interference = repro.RunMplayerInterference(cfg.seed, cfg.trigDur)
			fmt.Println(repro.FormatTable3(collected.Interference))
		},
		"powercap": func() {
			collected.PowerCap = repro.RunPowerCap(repro.PowerCapConfig{Seed: cfg.seed})
			fmt.Println(repro.FormatPowerCap(collected.PowerCap))
		},
		"scalability": func() {
			collected.Scalability = repro.RunCoordScalability(repro.ScalabilityConfig{
				Seed: cfg.seed, Workers: cfg.workers, Reps: cfg.reps,
			})
			fmt.Println(repro.FormatScalability(collected.Scalability))
		},
		"ablation-latency":    func() { ablationLatency(cfg) },
		"ablation-mechanisms": func() { ablationMechanisms(cfg) },
		"ablation-threshold":  func() { ablationThreshold(cfg) },
		"ablation-interrupt":  func() { ablationInterrupt(cfg) },
		"ablation-loss":       func() { ablationLoss(cfg) },
		"ablation-faults":     func() { ablationFaults(cfg) },
		"ablation-overload":   func() { ablationOverload(cfg) },
		"ablation-energy":     func() { ablationEnergy(cfg) },
		"ablation-failover":   func() { ablationFailover(cfg) },
		"ablation-scenarios":  func() { ablationScenarios(cfg) },
	}

	order := []string{"fig2", "fig4", "table1", "table2", "fig5", "fig6", "fig7", "table3",
		"powercap", "scalability", "ablation-latency", "ablation-mechanisms", "ablation-threshold",
		"ablation-interrupt", "ablation-loss", "ablation-faults", "ablation-overload",
		"ablation-energy", "ablation-failover", "ablation-scenarios"}

	writeJSON := func() {
		if *jsonPath == "" {
			return
		}
		data, err := collected.ExportJSON()
		if err != nil {
			die(fmt.Errorf("json export: %w", err))
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			die(fmt.Errorf("json export: %w", err))
		}
		fmt.Fprintf(os.Stderr, "results written to %s\n", *jsonPath)
	}

	if *exp == "all" {
		for _, name := range order {
			fmt.Printf("==== %s ====\n", name)
			run[name]()
		}
		writeJSON()
		return
	}
	fn, ok := run[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; known: all sweep-bench %v\n", *exp, order)
		os.Exit(2)
	}
	fn()
	writeJSON()
}

// runSweepBench executes the pinned benchmark sweep, writes its report,
// and optionally enforces the regression guard against a committed
// baseline: exact on simulated metrics, ±10% on wall-clock trial
// throughput (skippable with -ignore-wall for CI on unknown hardware).
// The baseline is loaded before the sweep runs, and an output path naming
// the baseline file is refused: the guard would compare the run with
// itself.
func runSweepBench(cfg benchConfig, jsonPath, baselinePath string, ignoreWall bool) {
	if jsonPath == "" {
		jsonPath = "BENCH_sweep.json"
	}
	var base *sweep.BenchReport
	if baselinePath != "" {
		out, errOut := os.Stat(jsonPath)
		in, errIn := os.Stat(baselinePath)
		if errOut == nil && errIn == nil && os.SameFile(out, in) {
			fmt.Fprintf(os.Stderr, "reprobench: the report path %s is the baseline %s; the guard would compare the run with itself (pass -json elsewhere, e.g. -json /tmp/BENCH_sweep.json)\n", jsonPath, baselinePath)
			os.Exit(2)
		}
		var err error
		if base, err = sweep.LoadBenchReport(baselinePath); err != nil {
			die(err)
		}
	}

	report, err := repro.RunBenchSweep(cfg.workers, progressPrinter("sweep-bench"))
	if err != nil {
		die(err)
	}
	fmt.Printf("sweep-bench: %s — %d trials in %.1fs (%.3f trials/s, %d workers)\n",
		report.Name, report.Trials, report.ElapsedSec, report.TrialsPerSec, report.Workers)
	if err := report.Write(jsonPath); err != nil {
		die(err)
	}
	fmt.Fprintf(os.Stderr, "bench report written to %s\n", jsonPath)
	if base == nil {
		return
	}
	wallTol := 0.10
	if ignoreWall {
		wallTol = 0
	}
	drift, wall := sweep.CompareBench(base, report, wallTol)
	for _, d := range drift {
		fmt.Printf("DRIFT: %s\n", d)
	}
	for _, w := range wall {
		fmt.Printf("WALL:  %s\n", w)
	}
	switch {
	case len(drift) > 0:
		fmt.Println("bench guard FAILED: simulated metrics drifted from the committed baseline")
		os.Exit(1)
	case len(wall) > 0:
		fmt.Println("bench guard FAILED: trial throughput outside ±10% of baseline")
		os.Exit(1)
	default:
		fmt.Println("bench guard OK: simulated metrics exact, throughput within tolerance")
	}
}

// ---------------------------------------------------------------------------
// Ablation matrices. Every RUBiS ablation is a repro.Matrix run through
// repro.RunMatrix, and every ablation table goes through one
// column-driven printer: repetitions fold into mean ± 95% CI per cell.

// column is one metric column of an ablation table over rows of type R.
type column[R any] struct {
	header string
	format string // fmt verb for one value, e.g. "%10.1f"
	value  func(R) float64
}

// printTable prints an ablation table: the point names, then each
// column's mean over the point's repetitions. rows holds reps
// consecutive trials per point, in point order. Output is byte-identical
// for any -workers value: trials land in stable point-major order
// regardless of completion order.
func printTable[R any](title, label string, names []string, reps int, rows []R, cols []column[R]) {
	width := utf8.RuneCountInString(label)
	for _, n := range names {
		width = max(width, utf8.RuneCountInString(n)) // fmt pads by runes: "5µs"
	}
	fmt.Println(title)
	line := fmt.Sprintf("%-*s |", width, label)
	for _, c := range cols {
		line += fmt.Sprintf(" %*s", len(fmt.Sprintf(c.format, 0.0)), c.header)
	}
	fmt.Println(line)
	for pi, name := range names {
		line := fmt.Sprintf("%-*s |", width, name)
		for _, c := range cols {
			var s stats.Summary
			for _, r := range rows[pi*reps : (pi+1)*reps] {
				s.Add(c.value(r))
			}
			line += " " + formatCell(c.format, s.Mean(), s.CI95(), reps)
		}
		fmt.Println(line)
	}
}

// formatCell renders one table cell: the (mean) value in the column's
// format, with a ±CI95 suffix when the sweep ran repetitions.
func formatCell(format string, mean, ci float64, reps int) string {
	cell := fmt.Sprintf(format, mean)
	if reps > 1 {
		cell += fmt.Sprintf("±%.1f", ci)
	}
	return cell
}

// ablation runs a RUBiS matrix across the worker pool and prints its
// table, returning the result for headline lines.
func ablation[R any](cfg benchConfig, name, title, label string, m repro.Matrix[R], cols []column[R]) *repro.MatrixResult[R] {
	res, err := repro.RunMatrix(m, cfg.facadeOptions(name))
	if err != nil {
		die(err)
	}
	names := make([]string, len(m.Points))
	for i, p := range m.Points {
		names[i] = p.Name
	}
	printTable(title, label, names, res.Sweep.Reps, res.Rows, cols)
	return res
}

// rubisConfig is the run shape every RUBiS ablation shares.
func (c benchConfig) rubisConfig() repro.RubisConfig {
	return repro.RubisConfig{Seed: c.seed, Duration: c.rubisDur}
}

// rubisRow is the row of the hand-built RUBiS ablations: the metrics
// their tables print.
type rubisRow struct {
	Throughput float64 `json:"throughput"`
	MeanMs     float64 `json:"mean_ms"`
	MaxMs      float64 `json:"max_ms"`
	Efficiency float64 `json:"efficiency"`
}

func rubisMatrix(version string, points []repro.MatrixPoint) repro.Matrix[rubisRow] {
	return repro.Matrix[rubisRow]{Version: version, Points: points, Project: func(_ repro.MatrixPoint, r *repro.RubisRun) rubisRow {
		return rubisRow{Throughput: r.Throughput, MeanMs: r.MeanOverTypes(), MaxMs: r.MaxOverTypes(), Efficiency: r.Efficiency}
	}}
}

var (
	tputCol = column[rubisRow]{"tput(r/s)", "%10.1f", func(r rubisRow) float64 { return r.Throughput }}
	meanCol = column[rubisRow]{"mean(ms)", "%10.0f", func(r rubisRow) float64 { return r.MeanMs }}
)

// ablationLatency sweeps the coordination-channel latency — the paper
// blames PCIe latency for mis-coordination on read/write transitions and
// predicts QPI/HTX-class interconnects would remove it.
func ablationLatency(cfg benchConfig) {
	var points []repro.MatrixPoint
	for _, lat := range []time.Duration{
		5 * time.Microsecond,   // on-chip signalling (the paper's hardware wish)
		150 * time.Microsecond, // the prototype's PCIe mailbox
		20 * time.Millisecond,  // a slow software path
		200 * time.Millisecond, // approaching the workload's phase timescale
		1 * time.Second,        // stale beyond usefulness
	} {
		rc := cfg.rubisConfig()
		rc.CoordLatency = lat
		points = append(points, repro.MatrixPoint{Name: lat.String(), Config: rc, Coordinated: true})
	}
	ablation(cfg, "ablation-latency", "Ablation: coordination-channel latency sweep (RUBiS, coordinated)", "latency",
		rubisMatrix("ablation-latency-v1", points), []column[rubisRow]{
			tputCol, meanCol, {"max-type(ms)", "%12.0f", func(r rubisRow) float64 { return r.MaxMs }},
		})
}

// ablationMechanisms compares the coordination policy variants, with the
// uncoordinated baseline as the first point of the same matrix.
func ablationMechanisms(cfg benchConfig) {
	points := []repro.MatrixPoint{{Name: "none (base)", Config: cfg.rubisConfig()}}
	for _, s := range []repro.CoordScheme{repro.SchemeOutstanding, repro.SchemeLoadTrack, repro.SchemeClass} {
		rc := cfg.rubisConfig()
		rc.Scheme = s
		points = append(points, repro.MatrixPoint{Name: string(s), Config: rc, Coordinated: true})
	}
	ablation(cfg, "ablation-mechanisms", "Ablation: coordination policy variants (RUBiS)", "scheme",
		rubisMatrix("ablation-mechanisms-v1", points), []column[rubisRow]{
			tputCol, meanCol, {"efficiency", "%10.2f", func(r rubisRow) float64 { return r.Efficiency }},
		})
}

// ablationInterrupt sweeps the IXP's host-interrupt moderation period —
// the "user-defined frequency" of §2.1. Longer periods batch packets into
// fewer Dom0 wakeups at the cost of delivery latency.
func ablationInterrupt(cfg benchConfig) {
	var points []repro.MatrixPoint
	for _, p := range []time.Duration{0, 1 * time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond} {
		label := "poll (off)"
		if p > 0 {
			label = p.String()
		}
		rc := cfg.rubisConfig()
		rc.IntrModeration = p
		points = append(points, repro.MatrixPoint{Name: label, Config: rc, Coordinated: true})
	}
	ablation(cfg, "ablation-interrupt", "Ablation: host interrupt moderation period (RUBiS, coordinated)", "period",
		rubisMatrix("ablation-interrupt-v1", points), []column[rubisRow]{tputCol, meanCol})
}

// ablationLoss injects coordination-message loss (fault injection): the
// outstanding-load translation's decay heals drift, so coordination should
// degrade gracefully rather than collapse.
func ablationLoss(cfg benchConfig) {
	points := []repro.MatrixPoint{{Name: "(no coord)", Config: cfg.rubisConfig()}}
	for _, rate := range []float64{0, 0.1, 0.3, 0.6} {
		rc := cfg.rubisConfig()
		rc.CoordLossRate = rate
		points = append(points, repro.MatrixPoint{Name: fmt.Sprintf("%.0f%%", rate*100), Config: rc, Coordinated: true})
	}
	ablation(cfg, "ablation-loss", "Ablation: coordination-message loss (RUBiS)", "loss",
		rubisMatrix("ablation-loss-v1", points), []column[rubisRow]{tputCol, meanCol})
}

// ablationThreshold sweeps the Figure 7 trigger watermark. It is the one
// MPlayer ablation, so it drives the sweep engine directly.
func ablationThreshold(cfg benchConfig) {
	type pointCfg struct {
		ThresholdKB int   `json:"threshold_kb"`
		DurationNs  int64 `json:"duration_ns"`
	}
	type row struct {
		FPS      float64 `json:"fps"`
		Triggers uint64  `json:"triggers"`
	}
	var points []sweep.Point
	var names []string
	for _, kb := range []int{32, 64, 128, 256, 384} {
		name := fmt.Sprintf("%dKB", kb)
		names = append(names, name)
		points = append(points, sweep.Point{
			Name:   name,
			Config: pointCfg{ThresholdKB: kb, DurationNs: int64(cfg.trigDur)},
		})
	}
	res, err := sweep.Run(points, func(t sweep.Trial) (any, error) {
		pc := t.Point.Config.(pointCfg)
		r := mplayer.RunTriggerExperiment(mplayer.TriggerConfig{
			Seed: t.Seed, Threshold: pc.ThresholdKB << 10,
			Duration: sim.FromDuration(time.Duration(pc.DurationNs)),
		}, true)
		return row{FPS: r.Dom1FPS, Triggers: r.Triggers}, nil
	}, cfg.sweepOptions("ablation-threshold", "ablation-threshold-v1"))
	if err == nil {
		err = res.Err()
	}
	if err != nil {
		die(err)
	}
	rows := make([]row, len(res.Trials))
	for i := range rows {
		if err := res.Decode(i, &rows[i]); err != nil {
			die(err)
		}
	}
	printTable("Ablation: buffer-watermark trigger threshold (MPlayer)", "threshold", names, res.Reps, rows, []column[row]{
		{"dom1 fps", "%10.1f", func(r row) float64 { return r.FPS }},
		{"triggers", "%10.0f", func(r row) float64 { return float64(r.Triggers) }},
	})
}

// ablationFaults runs the coordination plane through the canonical fault
// matrix (repro.FaultMatrix), comparing the fragile (fire-and-forget)
// wiring against the reliable plane (ack/retry + heartbeats + graceful
// degradation). The robustness claim: under every scenario the coordinated
// run with the reliable plane stays close to — and under heavy faults
// degrades gracefully toward — the uncoordinated baseline rather than
// collapsing below it.
func ablationFaults(cfg benchConfig) {
	ablation(cfg, "ablation-faults", "Ablation: fault matrix (RUBiS; fragile vs reliable coordination plane)", "scenario/plane",
		repro.FaultMatrix(cfg.rubisConfig()), []column[repro.FaultsRow]{
			{"tput(r/s)", "%9.1f", func(r repro.FaultsRow) float64 { return r.Throughput }},
			{"mean(ms)", "%9.0f", func(r repro.FaultsRow) float64 { return r.MeanMs }},
			{"retrans", "%8.0f", func(r repro.FaultsRow) float64 { return float64(r.Retransmits) }},
			{"expired", "%8.0f", func(r repro.FaultsRow) float64 { return float64(r.Expired) }},
			{"degrade", "%8.0f", func(r repro.FaultsRow) float64 { return float64(r.Degradations) }},
			{"revert", "%8.0f", func(r repro.FaultsRow) float64 { return float64(r.BaselineReverts) }},
			{"shed", "%8.0f", func(r repro.FaultsRow) float64 { return float64(r.Shed) }},
		})
}

// ablationOverload sweeps the overload-control ablation: no control vs
// bounded tier queues vs the full coordinated plane, at offered-load
// multipliers from 1× to 4× the calibrated population. The claim: past
// saturation, coordinated shedding keeps goodput strictly above no-control
// while holding the served-request p95 bounded instead of letting queueing
// delay grow without limit.
func ablationOverload(cfg benchConfig) {
	ablation(cfg, "ablation-overload", "Ablation: overload control (RUBiS; none vs bounded vs coordinated)", "control/load",
		repro.OverloadMatrix(cfg.rubisConfig()), []column[repro.OverloadRow]{
			{"goodput(r/s)", "%11.1f", func(r repro.OverloadRow) float64 { return r.Goodput }},
			{"p95(ms)", "%11.0f", func(r repro.OverloadRow) float64 { return r.ServedP95Ms }},
			{"queueshed", "%9.0f", func(r repro.OverloadRow) float64 { return float64(r.QueueShed) }},
			{"expired", "%8.0f", func(r repro.OverloadRow) float64 { return float64(r.Expired) }},
			{"ixpshed", "%8.0f", func(r repro.OverloadRow) float64 { return float64(r.IXPShed) }},
			{"abandon", "%8.0f", func(r repro.OverloadRow) float64 { return float64(r.Abandoned) }},
			{"triggers", "%8.0f", func(r repro.OverloadRow) float64 { return float64(r.Triggers) }},
		})
}

// ablationEnergy sweeps the energy ablation: no governor vs per-island
// latency-blind ondemand governors vs the coordinated QoS-constrained
// governor, at offered loads from half the calibrated population to 1.5×.
// The claim: at the calibrated 1× point the x86 island reads ~100% busy,
// so utilization-driven governors are frozen at the top frequency — only
// the governor that senses the end-to-end p95 can see that the SLO has
// slack and convert it into platform energy savings.
func ablationEnergy(cfg benchConfig) {
	res := ablation(cfg, "ablation-energy", "Ablation: energy governor (RUBiS; off vs ondemand vs coordinated)", "governor/load",
		repro.EnergyMatrix(cfg.rubisConfig()), []column[repro.EnergyRow]{
			{"joules", "%10.1f", func(r repro.EnergyRow) float64 { return r.PlatformJoules }},
			{"x86(J)", "%9.1f", func(r repro.EnergyRow) float64 { return r.X86Joules }},
			{"ixp(J)", "%9.1f", func(r repro.EnergyRow) float64 { return r.IXPJoules }},
			{"J/req", "%8.3f", func(r repro.EnergyRow) float64 { return r.JoulesPerRequest }},
			{"p95(ms)", "%8.0f", func(r repro.EnergyRow) float64 { return r.ServedP95Ms }},
			{"qosviol", "%7.0f", func(r repro.EnergyRow) float64 { return float64(r.QoSViolations) }},
			{"windows", "%7.0f", func(r repro.EnergyRow) float64 { return float64(r.QoSWindows) }},
			{"trans", "%6.0f", func(r repro.EnergyRow) float64 { return float64(r.Transitions) }},
		})

	// The headline number: coordinated savings over the uncoordinated
	// governors at the calibrated 1× point, valid only while the SLO holds.
	if od, ok1 := res.Row("ondemand/1x"); ok1 {
		if co, ok2 := res.Row("coordinated/1x"); ok2 && od.PlatformJoules > 0 {
			saving := 100 * (1 - co.PlatformJoules/od.PlatformJoules)
			fmt.Printf("\ncoordinated vs ondemand at 1x: %.1f%% fewer joules (p95 %.0fms vs %.0fms, target %.0fms)\n",
				saving, co.ServedP95Ms, od.ServedP95Ms, float64(repro.DefaultQoSTargetP95/time.Millisecond))
		}
	}
}

// ablationFailover runs the controller-availability matrix
// (repro.FailoverMatrix): a solo controller (checkpointing, nothing to
// fail over to) against a 3-replica group with deterministic election,
// under primary crash and partition windows. The availability claim: with
// replication, a mid-run primary death costs a bounded election window
// (promotions > 0, no-primary drops bounded) instead of losing
// coordination for the rest of the window.
func ablationFailover(cfg benchConfig) {
	ablation(cfg, "ablation-failover", "Ablation: controller failover (RUBiS; solo vs replicated controller)", "scenario/plane",
		repro.FailoverMatrix(cfg.rubisConfig()), []column[repro.FailoverRow]{
			{"tput(r/s)", "%9.1f", func(r repro.FailoverRow) float64 { return r.Throughput }},
			{"mean(ms)", "%9.0f", func(r repro.FailoverRow) float64 { return r.MeanMs }},
			{"ckpts", "%8.0f", func(r repro.FailoverRow) float64 { return float64(r.Checkpoints) }},
			{"promote", "%8.0f", func(r repro.FailoverRow) float64 { return float64(r.Promotions) }},
			{"stale", "%8.0f", func(r repro.FailoverRow) float64 { return float64(r.StaleDropped) }},
			{"noprim", "%8.0f", func(r repro.FailoverRow) float64 { return float64(r.NoPrimaryDrops) }},
			{"shed", "%8.0f", func(r repro.FailoverRow) float64 { return float64(r.Shed) }},
		})
}

// ablationScenarios runs the trace-driven scenario matrix
// (repro.ScenarioMatrix): one scenario per generator family, each on the
// base and the coordinated plane. The claim: coordination helps (or at
// worst matches the baseline) across workload shapes the closed-loop
// client cannot express — flash crowds, diurnal curves, heavy-tailed
// sessions, inference serving, and key-value traffic.
func ablationScenarios(cfg benchConfig) {
	ablation(cfg, "ablation-scenarios", "Ablation: trace-driven scenarios (base vs coordinated plane)", "scenario/plane",
		repro.ScenarioMatrix(cfg.rubisConfig()), []column[repro.ScenarioRow]{
			{"tput(r/s)", "%9.1f", func(r repro.ScenarioRow) float64 { return r.Throughput }},
			{"mean(ms)", "%9.0f", func(r repro.ScenarioRow) float64 { return r.MeanMs }},
			{"sessions", "%8.0f", func(r repro.ScenarioRow) float64 { return float64(r.Sessions) }},
			{"shed", "%8.0f", func(r repro.ScenarioRow) float64 { return float64(r.Shed) }},
			{"abandon", "%8.0f", func(r repro.ScenarioRow) float64 { return float64(r.Abandoned) }},
			{"retrans", "%8.0f", func(r repro.ScenarioRow) float64 { return float64(r.Retransmits) }},
		})
}
