package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro"
)

// TestMain lets the smoke test start this test binary as its child
// processes, so it drives the same child-process path as the benchmark.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		runChild()
	}
	os.Exit(m.Run())
}

// TestOwnerAttribution pins the owner rule on hand-written stacks, leaf
// first, for every edge case: an event in a layer, kernel calls made by
// that event, the ticker's own re-arm, heap pops, GC workers and assists,
// and work outside any event.
func TestOwnerAttribution(t *testing.T) {
	const (
		step    = "repro/internal/sim.(*Simulator).Step"
		runTill = "repro/internal/sim.(*Simulator).RunUntil"
		tick    = "repro/internal/sim.(*Simulator).Ticker.func1"
		after   = "repro/internal/sim.(*Simulator).After"
		at      = "repro/internal/sim.(*Simulator).At"
	)
	root := []string{runTill, "repro/internal/rubis.RunExperiment", "repro.runRubis", "main.main", "runtime.main"}
	under := func(frames ...string) []string { return append(append(frames, step), root...) }
	cases := []struct {
		name        string
		stack       []string
		owner, self string
	}{
		{"ticker re-arm", under("runtime.mallocgc", at, after, tick), "dispatch", "sim"},
		{"heap pop", under("repro/internal/sim.eventHeap.pop"), "dispatch", "sim"},
		{"ticker callback", under("repro/internal/xen.(*Hypervisor).account", tick), "xen", "xen"},
		{"kernel call from an event", under("runtime.mallocgc", at, after, "repro/internal/ixp.(*Microengine).poll"), "ixp", "sim"},
		{"first layer leafward of Step owns", under("repro/internal/pcie.(*Mailbox).Send", "repro/internal/core.(*Agent).Send", "repro/internal/ixp.(*IXP).adjust.func2"), "ixp", "pcie"},
		{"GC assist inside an event", under("runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/rubis.(*Server).arrive"), "rubis", "rubis"},
		{"outermost Step", under("repro/internal/flight.(*Recorder).Record", step, "repro/internal/overload.(*Queue).offer"), "overload", "flight"},
		{"facade callback", under("repro.runScalabilityPoint.func2"), "repro", "repro"},
		{"unlisted layer falls to repro", under("repro/internal/mplayer.(*Player).frame"), "repro", "other"},
		{"GC worker", []string{"runtime.scanobject", "runtime.gcDrain", gcWorkerFunc, "runtime.goexit"}, "gc", "none"},
		{"set-up outside events", []string{"repro/internal/scenario.Generate", "repro.Scenario.Compile", "main.prepareScenarioSweep", "main.main"}, "harness", "scenario"},
		{"runtime outside events", []string{"runtime.futex", "runtime.sysmon"}, "harness", "none"},
		{"empty stack", nil, "harness", "none"},
	}
	for _, c := range cases {
		if got := owner(c.stack); got != c.owner {
			t.Errorf("%s: owner = %q, want %q", c.name, got, c.owner)
		}
		if got := self(c.stack); got != c.self {
			t.Errorf("%s: self = %q, want %q", c.name, got, c.self)
		}
	}
}

func TestFuncPackage(t *testing.T) {
	for name, want := range map[string]string{
		"repro/internal/sim.(*Simulator).Step": "repro/internal/sim",
		"repro.runScalabilityPoint.func2":      "repro",
		"repro/internal/core.Map[...].Get":     "repro/internal/core",
		"runtime.gcBgMarkWorker":               "runtime",
		"main.main":                            "main",
		"sync.(*Mutex).Lock":                   "sync",
	} {
		if got := funcPackage(name); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", name, got, want)
		}
	}
}

// TestAttributeCapturedProfile profiles a small coordination-scalability
// run, whose event callbacks live in the root repro package, and decodes
// the profile with the benchmark's own decoder.
func TestAttributeCapturedProfile(t *testing.T) {
	var buf bytes.Buffer
	runtime.SetCPUProfileRate(cpuProfileHz)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	cfg := repro.ScalabilityConfig{Seed: 1, Islands: []int{64}, Duration: 2 * time.Second, Workers: 1}
	for start := cpuTime(); cpuTime()-start < 600*time.Millisecond; {
		repro.RunCoordScalability(cfg)
	}
	pprof.StopCPUProfile()

	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	idx := p.valueIndex("samples")
	if idx < 0 {
		t.Fatalf("no samples column in %v", p.sampleTypes)
	}
	a := attribute(p, idx)
	if a.total < 20 {
		t.Fatalf("only %d samples", a.total)
	}
	var want, ownerSum, selfSum int64
	for _, s := range p.samples {
		want += s.values[idx]
	}
	for _, b := range ownerBuckets {
		ownerSum += a.owner[b]
	}
	for _, b := range selfBuckets {
		selfSum += a.self[b]
	}
	if a.total != want || ownerSum != want || selfSum != want {
		t.Fatalf("samples %d: total %d, owner buckets %d, self buckets %d", want, a.total, ownerSum, selfSum)
	}
	// Only samples under Step have an event owner; under the race
	// detector many stacks stop in its C runtime and count as harness.
	inEvents := a.owner["repro"] + a.owner["dispatch"]
	if a.owner["repro"] < 5 || float64(a.owner["repro"]) < 0.2*float64(inEvents) {
		t.Errorf("repro owns %d of %d in-event samples (%v), want the callbacks' package to show", a.owner["repro"], inEvents, a.owner)
	}
	for _, b := range []string{"ixp", "xen", "rubis", "core", "pcie"} {
		if a.owner[b] != 0 {
			t.Errorf("owner %s has %d samples; the run touches no such code", b, a.owner[b])
		}
	}

	// The decoder reports damage as an error, never a panic.
	zr, err := gzip.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, 2, 7, len(raw) / 3, len(raw) / 2, len(raw) - 1} {
		_, _ = parseProfile(raw[:cut])
	}
}

// benchmarkSpec mirrors BENCHMARK.json at the repository root.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's workload and metric
// lists identical to the ones the benchmark reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	spec := loadBenchmarkSpec(t)
	var got, want []string
	for _, w := range spec.Workloads {
		got = append(got, w.Name+": "+w.Why)
	}
	for _, w := range workloads {
		want = append(want, w.name+": "+w.why)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json workloads\n%q\ncode\n%q", got, want)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end\n%v\ncode\n%v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer\n%v\ncode\n%v", spec.PerLayer, perLayer)
	}
}

// TestSmoke runs every workload once at a 2 s horizon through the child
// processes, traced and untraced, and checks that every metric
// BENCHMARK.json names is printed with its unit and a finite value.
func TestSmoke(t *testing.T) {
	spec := loadBenchmarkSpec(t)
	jsonPath := filepath.Join(t.TempDir(), "report.json")
	var stdout, stderr bytes.Buffer
	if code := parentMain([]string{"-horizon", "2s", "-reps", "1", "-json", jsonPath}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	var sum summaryLine
	if err := json.Unmarshal([]byte(lastLine(stdout.String())), &sum); err != nil {
		t.Fatalf("last line: %v\n%s", err, stdout.String())
	}
	if !sum.Correct || sum.Failed != 0 || sum.Attempted != 2*len(workloads) {
		t.Fatalf("correct %v, attempted %d, failed %d\n%s", sum.Correct, sum.Attempted, sum.Failed, stdout.String())
	}
	for _, w := range spec.Workloads {
		for _, m := range append(append([]metricDef(nil), spec.EndToEnd...), spec.PerLayer...) {
			key := w.Name + "." + m.Name
			v, ok := sum.Metrics[key]
			switch {
			case !ok:
				t.Errorf("%s not printed", key)
			case v.Unit != m.Unit:
				t.Errorf("%s unit %q, want %q", key, v.Unit, m.Unit)
			case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
				t.Errorf("%s = %v", key, v.Value)
			}
		}
		if !strings.Contains(stdout.String(), w.Name+" ") {
			t.Errorf("report has no row for %s", w.Name)
		}
	}
	if _, err := os.Stat(jsonPath); err != nil {
		t.Errorf("-json report: %v", err)
	}
}
