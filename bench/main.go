// Command bench measures what the repro simulator costs its host: wall and
// CPU time, allocations and set-up time per simulated second, on four
// workloads run through the public repro facade, plus a traced run per
// workload that attributes CPU and allocations to layers from profiles the
// benchmark decodes itself. Every rep runs in a fresh child process and its
// simulated output is checked. See README.md.
//
// Run from the repository root:
//
//	sh bench/run.sh -seed 1
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	if os.Getenv(childEnv) != "" {
		runChild()
	}
	os.Exit(parentMain(os.Args[1:], os.Stdout, os.Stderr))
}

// Scheduling constants. In time-budget mode (-seconds) reps continue
// round-robin while the next one is predicted to finish in the budget,
// but never fewer than minBudgetReps untraced reps per workload, and
// set-up-only children top setup_s up to setupSamples samples.
const (
	minBudgetReps = 3
	setupSamples  = 21
	childTimeout  = 150 * time.Second
	goldenFile    = "bench/golden.json"
)

//go:embed golden.json
var goldenJSON []byte

// options are the parsed command-line flags.
type options struct {
	seed        int64
	reps        int
	workloads   []workload
	seconds     float64
	untraced    bool
	traced      bool
	jsonPath    string
	writeGolden bool
	horizon     time.Duration
}

func parseFlags(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{}
	fs.Int64Var(&o.seed, "seed", 1, "workload seed (1 tunes, 2 is held out)")
	fs.IntVar(&o.reps, "reps", 7, "untraced reps per workload (ignored with -seconds)")
	var names string
	fs.StringVar(&names, "workloads", "", "comma-separated workloads (default all)")
	fs.StringVar(&names, "workload", "", "alias of -workloads")
	fs.Float64Var(&o.seconds, "seconds", 0, "measure for this many seconds instead of a fixed -reps")
	trace := fs.String("trace", "", "\"0\": end-to-end metrics only; \"1\": traced per-layer metrics only; default both")
	fs.StringVar(&o.jsonPath, "json", "", "also write the full report as JSON to this file")
	fs.BoolVar(&o.writeGolden, "write-golden", false, "record this seed's digests in "+goldenFile)
	fs.DurationVar(&o.horizon, "horizon", 0, "override every workload's simulated length (smoke runs; disables golden checks)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	switch *trace {
	case "":
		o.untraced, o.traced = true, true
	case "0":
		o.untraced = true
	case "1":
		o.traced = true
	default:
		return nil, fmt.Errorf("-trace %q: want 0 or 1", *trace)
	}
	if o.writeGolden && o.horizon > 0 {
		return nil, fmt.Errorf("-write-golden records standard-length runs; drop -horizon")
	}
	if o.reps < 1 {
		return nil, fmt.Errorf("-reps %d: want at least 1", o.reps)
	}
	if names == "" {
		o.workloads = workloads
	} else {
		for _, n := range strings.Split(names, ",") {
			w, ok := findWorkload(n)
			if !ok {
				return nil, fmt.Errorf("unknown workload %q", n)
			}
			o.workloads = append(o.workloads, w)
		}
	}
	return o, nil
}

// procs is the GOMAXPROCS every child runs with.
func procs() int { return min(2, runtime.NumCPU()) }

// wlRun collects one workload's children.
type wlRun struct {
	w        workload
	untraced []*repResult
	traced   *repResult
	setups   []float64
	walls    []float64 // wall time of every untraced rep started
	failures []string
	attempts int // children started
	failed   int // children that failed a check
}

func (r *wlRun) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// reject records a failed check of one child's result, counting each
// child once however many checks it fails.
func (r *wlRun) reject(res *repResult, format string, args ...any) {
	if !res.rejected {
		res.rejected = true
		r.failed++
	}
	r.fail(format, args...)
}

func parentMain(args []string, stdout, stderr io.Writer) int {
	opt, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	golden, err := loadGolden()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	runs := make([]*wlRun, len(opt.workloads))
	for i, w := range opt.workloads {
		runs[i] = &wlRun{w: w}
	}
	s := &scheduler{opt: opt, exe: exe, start: time.Now()}
	if opt.traced {
		for _, r := range runs {
			s.spawn(r, true, false)
		}
	}
	s.untracedReps(runs)
	if opt.untraced && opt.seconds > 0 {
		for _, r := range runs {
			for n := len(r.setups); n < setupSamples; n++ {
				s.spawn(r, false, true)
			}
		}
	}

	for _, r := range runs {
		checkDigests(r, golden[strconv.FormatInt(opt.seed, 10)], opt)
		checkBuckets(r)
	}
	rep := buildReport(opt, runs)
	printReport(stdout, rep, opt)
	if opt.jsonPath != "" {
		if err := writeJSON(opt.jsonPath, rep); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if opt.writeGolden {
		if err := saveGolden(opt.seed, runs); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if err := json.NewEncoder(stdout).Encode(rep.summary()); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// scheduler starts children one at a time.
type scheduler struct {
	opt   *options
	exe   string
	start time.Time
}

// untracedReps runs the untraced reps round-robin across workloads, so
// drift in host speed spreads evenly over them.
func (s *scheduler) untracedReps(runs []*wlRun) {
	// A traced-only run still takes untraced reps to measure the tracing
	// overhead against.
	minReps := 1
	if s.opt.untraced {
		minReps = minBudgetReps
	}
	for {
		progressed := false
		for _, r := range runs {
			if s.wantMore(r, minReps) {
				s.spawn(r, false, false)
				progressed = true
			}
		}
		if !progressed {
			return
		}
	}
}

func (s *scheduler) wantMore(r *wlRun, minReps int) bool {
	n := len(r.walls)
	if s.opt.seconds <= 0 {
		if !s.opt.untraced {
			return n < 1
		}
		return n < s.opt.reps
	}
	if n < minReps {
		return true
	}
	next := time.Since(s.start).Seconds() + median(r.walls)
	return next <= s.opt.seconds
}

// spawn runs one child and files its result under r.
func (s *scheduler) spawn(r *wlRun, traced, setupOnly bool) {
	kind := "untraced rep"
	switch {
	case traced:
		kind = "traced rep"
	case setupOnly:
		kind = "setup-only child"
	}
	r.attempts++
	args := []string{
		"-workload", r.w.name,
		"-seed", strconv.FormatInt(s.opt.seed, 10),
		"-horizon", s.opt.horizon.String(),
		"-traced=" + strconv.FormatBool(traced),
		"-setup-only=" + strconv.FormatBool(setupOnly),
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	var out, errOut bytes.Buffer
	start := time.Now()
	cmd := exec.CommandContext(ctx, s.exe, append(args, "-t0", strconv.FormatInt(start.UnixNano(), 10))...)
	cmd.Env = childEnviron()
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	if !traced && !setupOnly {
		r.walls = append(r.walls, time.Since(start).Seconds())
	}
	if err != nil {
		r.failed++
		r.fail("%s: %v: %s", kind, err, lastLine(errOut.String()))
		return
	}
	var res repResult
	if err := json.Unmarshal([]byte(lastLine(out.String())), &res); err != nil {
		r.failed++
		r.fail("%s: bad result: %v", kind, err)
		return
	}
	r.setups = append(r.setups, res.SetupS)
	for _, f := range res.Failures {
		r.reject(&res, "%s: %s", kind, f)
	}
	switch {
	case traced:
		r.traced = &res
	case !setupOnly:
		r.untraced = append(r.untraced, &res)
	}
}

// childEnviron is the parent's environment with the child marker and the
// pinned GOMAXPROCS, minus the runtime tuning variables that would change
// what is measured.
func childEnviron() []string {
	env := []string{childEnv + "=1", "GOMAXPROCS=" + strconv.Itoa(procs())}
	for _, kv := range os.Environ() {
		k, _, _ := strings.Cut(kv, "=")
		switch k {
		case childEnv, "GOMAXPROCS", "GOGC", "GOMEMLIMIT", "GODEBUG":
			continue
		}
		env = append(env, kv)
	}
	return env
}

func lastLine(s string) string {
	s = strings.TrimRight(s, "\n")
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// checkDigests fails every rep whose simulated output differs from the
// workload's first rep, or from the committed golden digest for this seed.
// The traced rep is included: observation must not change the results.
func checkDigests(r *wlRun, golden map[string]string, opt *options) {
	all := append([]*repResult(nil), r.untraced...)
	if r.traced != nil {
		all = append(all, r.traced)
	}
	if len(all) == 0 {
		return
	}
	want := all[0].Digest
	if g, ok := golden[r.w.name]; ok && opt.horizon == 0 && !opt.writeGolden {
		want = g
	}
	for _, res := range all {
		if res.Digest != want {
			kind := "untraced rep"
			if res.Traced {
				kind = "traced rep"
			}
			r.reject(res, "%s: digest %.12s differs from %.12s", kind, res.Digest, want)
		}
	}
}

// checkBuckets fails the traced rep unless its owner buckets account for
// every CPU sample exactly.
func checkBuckets(r *wlRun) {
	t := r.traced
	if t == nil {
		return
	}
	var sum int64
	for _, b := range ownerBuckets {
		sum += t.CPUOwner[b]
	}
	if sum != t.CPUSamples {
		r.reject(t, "traced rep: cpu.owner buckets sum to %d, cpu.samples is %d", sum, t.CPUSamples)
	}
}

// loadGolden decodes the committed digests: seed -> workload -> digest.
func loadGolden() (map[string]map[string]string, error) {
	g := map[string]map[string]string{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	return g, nil
}

// saveGolden records this run's digests for its seed in goldenFile, next
// to the digests the file already holds for other seeds.
func saveGolden(seed int64, runs []*wlRun) error {
	g := map[string]map[string]string{}
	if data, err := os.ReadFile(goldenFile); err == nil {
		if err := json.Unmarshal(data, &g); err != nil {
			return fmt.Errorf("%s: %w", goldenFile, err)
		}
	}
	key := strconv.FormatInt(seed, 10)
	if g[key] == nil {
		g[key] = map[string]string{}
	}
	for _, r := range runs {
		if len(r.failures) > 0 || len(r.untraced) == 0 {
			return fmt.Errorf("write-golden: %s did not pass its reps", r.w.name)
		}
		g[key][r.w.name] = r.untraced[0].Digest
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenFile, append(data, '\n'), 0o644)
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of reps behind the value; Spread their
	// interquartile range as a share of their median.
	N      int     `json:"n,omitempty"`
	Spread float64 `json:"spread,omitempty"`
}

// wlReport is one workload's section of the report.
type wlReport struct {
	Workload  string           `json:"workload"`
	Why       string           `json:"why"`
	EndToEnd  map[string]value `json:"end_to_end,omitempty"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	FailFrac  float64          `json:"fail_frac"`
	Failures  []string         `json:"failures,omitempty"`
	Warnings  []string         `json:"warnings,omitempty"`
	Digest    string           `json:"digest,omitempty"`
	Reps      []*repResult     `json:"reps,omitempty"`
}

// report is the whole run, as written by -json.
type report struct {
	Env struct {
		NumCPU     int    `json:"nproc"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		GoVersion  string `json:"go_version"`
		CPUModel   string `json:"cpu_model"`
	} `json:"env"`
	Seed      int64       `json:"seed"`
	Horizon   string      `json:"horizon,omitempty"`
	Workloads []*wlReport `json:"workloads"`
}

func buildReport(opt *options, runs []*wlRun) *report {
	rep := &report{Seed: opt.seed}
	rep.Env.NumCPU = runtime.NumCPU()
	rep.Env.GOMAXPROCS = procs()
	rep.Env.GoVersion = runtime.Version()
	rep.Env.CPUModel = readCPUModel()
	if opt.horizon > 0 {
		rep.Horizon = opt.horizon.String()
	}
	for _, r := range runs {
		wr := &wlReport{
			Workload:  r.w.name,
			Why:       r.w.why,
			Attempted: r.attempts,
			Failures:  r.failures,
			Reps:      r.untraced,
		}
		wr.Failed = r.failed
		wr.FailFrac = float64(wr.Failed) / float64(max(r.attempts, 1))
		if len(r.untraced) > 0 {
			wr.Digest = r.untraced[0].Digest
		}
		if opt.untraced {
			wr.EndToEnd = endToEndValues(r)
		}
		if opt.traced {
			wr.PerLayer, wr.Warnings = perLayerValues(r)
			if r.traced != nil {
				wr.Reps = append(wr.Reps, r.traced)
			}
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	return rep
}

func endToEndValues(r *wlRun) map[string]value {
	out := map[string]value{}
	for _, m := range endToEnd {
		var xs []float64
		if m.Name == "setup_s" {
			xs = r.setups
		} else {
			for _, res := range r.untraced {
				xs = append(xs, repValue(m.Name, res))
			}
		}
		out[m.Name] = value{Value: summarize(m, xs), Unit: m.Unit, N: len(xs), Spread: spread(xs)}
	}
	return out
}

// perLayerValues turns the traced child's profile buckets and counts into
// the per-layer metrics. Metrics a workload does not exercise read 0.
func perLayerValues(r *wlRun) (map[string]value, []string) {
	out := map[string]value{}
	for _, m := range perLayer {
		out[m.Name] = value{Unit: m.Unit}
	}
	set := func(name string, v float64) {
		m := out[name]
		m.Value = v
		out[name] = m
	}
	var warnings []string
	if t := r.traced; t != nil {
		// The kernel's tick rate caps how many profiling signals arrive,
		// so a sample's CPU time is the measured CPU time shared evenly.
		msPerSample := 1000 * t.CPUS / float64(max(t.CPUSamples, 1))
		for _, b := range ownerBuckets {
			n := t.CPUOwner[b]
			set("cpu.owner."+b, float64(n)*msPerSample/t.SimS)
			set("alloc.owner."+b, float64(t.AllocOwner[b])/t.SimS)
			if share := float64(n) / float64(max(t.CPUSamples, 1)); share > 0.01 && n < 50 {
				warnings = append(warnings, fmt.Sprintf("cpu.owner.%s holds %.1f%% of samples from only %d samples", b, 100*share, n))
			}
		}
		for _, b := range selfBuckets {
			set("cpu.self."+b, float64(t.CPUSelf[b])*msPerSample/t.SimS)
		}
		set("cpu.samples", float64(t.CPUSamples))
		for _, m := range countMetrics {
			set(m.Name, t.Counts[m.Name])
		}
		if untracedWall := median(wallsPerPass(r.untraced)); untracedWall > 0 {
			set("trace.overhead_frac", t.WallS/float64(t.Passes)/untracedWall-1)
		}
	}
	for _, name := range []string{"mem.peak_live_mb", "mem.gc_cycles_per_sim_s"} {
		var xs []float64
		for _, res := range r.untraced {
			xs = append(xs, repValue(name, res))
		}
		if len(xs) > 0 {
			set(name, median(xs))
		}
	}
	return out, warnings
}

func wallsPerPass(rs []*repResult) []float64 {
	var xs []float64
	for _, r := range rs {
		xs = append(xs, r.WallS/float64(r.Passes))
	}
	return xs
}

func writeJSON(path string, rep *report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// summaryLine is the last line of standard output.
type summaryLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// summary flattens the report into the last output line. With several
// workloads each metric name is prefixed by its workload's.
func (rep *report) summary() summaryLine {
	s := summaryLine{Metrics: map[string]value{}}
	for _, wr := range rep.Workloads {
		s.Attempted += wr.Attempted
		s.Failed += wr.Failed
		prefix := ""
		if len(rep.Workloads) > 1 {
			prefix = wr.Workload + "."
		}
		for _, group := range []map[string]value{wr.EndToEnd, wr.PerLayer} {
			for name, v := range group {
				s.Metrics[prefix+name] = value{Value: finite(v.Value), Unit: v.Unit}
			}
		}
	}
	s.Correct = s.Failed == 0 && s.Attempted > 0
	return s
}

// finite maps a NaN or infinity (a metric with no samples) to 0, which
// JSON can carry.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// printReport writes the human-readable tables.
func printReport(w io.Writer, rep *report, opt *options) {
	e := rep.Env
	fmt.Fprintf(w, "repro host-cost benchmark: seed %d, nproc %d, GOMAXPROCS %d, %s, %s\n",
		rep.Seed, e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.CPUModel)
	if rep.Horizon != "" {
		fmt.Fprintf(w, "horizon override: %s (golden digests not checked)\n", rep.Horizon)
	}
	if opt.untraced {
		fmt.Fprintf(w, "\nend to end (fastest untraced rep for wall and CPU time, median otherwise; setup_s over every child)\n")
		fmt.Fprintf(w, "%-15s %-19s %14s %-9s %6s %3s %7s\n", "workload", "metric", "value", "unit", "better", "n", "IQR/med")
		for _, wr := range rep.Workloads {
			for _, m := range endToEnd {
				v := wr.EndToEnd[m.Name]
				fmt.Fprintf(w, "%-15s %-19s %14.6g %-9s %6s %3d %6.1f%%\n", wr.Workload, m.Name, v.Value, v.Unit, m.Better, v.N, 100*v.Spread)
			}
			fmt.Fprintf(w, "%-15s %-19s %14.6g %-9s %6s %3d\n", wr.Workload, "fail_frac", wr.FailFrac, "ratio", "lower", wr.Attempted)
		}
	}
	if opt.traced {
		fmt.Fprintf(w, "\nper layer (traced run; zero rows omitted)\n")
		for _, wr := range rep.Workloads {
			for _, m := range perLayer {
				if v := wr.PerLayer[m.Name]; v.Value != 0 {
					fmt.Fprintf(w, "%-15s %-26s %14.6g %s\n", wr.Workload, m.Name, v.Value, v.Unit)
				}
			}
			for _, msg := range wr.Warnings {
				fmt.Fprintf(w, "%-15s warning: %s\n", wr.Workload, msg)
			}
		}
	}
	for _, wr := range rep.Workloads {
		fails := append([]string(nil), wr.Failures...)
		sort.Strings(fails)
		for _, f := range fails {
			fmt.Fprintf(w, "%-15s FAIL %s\n", wr.Workload, f)
		}
	}
}

// readCPUModel returns the host CPU's model name, or "unknown".
func readCPUModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		k, v, ok := bytes.Cut(line, []byte(":"))
		if ok && string(bytes.TrimSpace(k)) == "model name" {
			return string(bytes.TrimSpace(v))
		}
	}
	return "unknown"
}
