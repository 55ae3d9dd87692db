package repro

// Scenario conformance: the declarative workload DSL must validate with
// diagnosable errors, compile to deterministic runs, sweep
// byte-identically across worker counts, and record/replay through the
// flight recorder like every other experiment.

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/sim"
)

func scenarioMatrixCfg() RubisConfig {
	// Short runs: 10 matrix points at 6 simulated seconds keep the test
	// within a few wall-clock seconds per sweep.
	return RubisConfig{Seed: 1, Duration: 6 * time.Second}
}

// TestScenarioMatrixParallelDeterminism runs the scenario matrix
// sequentially and with an 8-worker pool and requires byte-identical
// canonical JSON — trial order, seeds, and every simulated metric. The
// trace is re-derived inside each trial, so this also pins that
// generation is a pure function of the spec and seed.
func TestScenarioMatrixParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	run := func(workers int) (*MatrixResult[ScenarioRow], []byte) {
		res, err := RunMatrix(ScenarioMatrix(scenarioMatrixCfg()), SweepOptions{Workers: workers, Seed: 1})
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
	if want := len(ScenarioMatrix(scenarioMatrixCfg()).Points); len(par.Rows) != want {
		t.Fatalf("matrix produced %d rows, want %d", len(par.Rows), want)
	}
	_ = seq

	// The matrix must actually exercise the machinery each scenario arms,
	// or the byte-compare proves nothing interesting.
	flash, ok := par.Row("flash-crowd+overload/coord")
	if !ok {
		t.Fatal("matrix lost its flash-crowd+overload/coord point")
	}
	if flash.Shed == 0 && flash.Abandoned == 0 {
		t.Error("flash crowd shed and abandoned nothing; overload scenario is near-vacuous")
	}
	tail, ok := par.Row("heavy-tail+partition/coord")
	if !ok {
		t.Fatal("matrix lost its heavy-tail+partition/coord point")
	}
	if tail.Retransmits == 0 {
		t.Error("partition scenario drove no retransmits; fault composition is near-vacuous")
	}
	for _, row := range par.Rows {
		if row.Throughput <= 0 {
			t.Errorf("scenario %s/%s served nothing", row.Scenario, row.Plane)
		}
	}
}

// TestScenarioFlightReplay pins trace-driven runs to the flight
// recorder: a generated-workload scenario with faults armed must record
// and replay with zero divergence. The workload spec travels inside the
// recorded config, so the replay re-derives the identical trace.
func TestScenarioFlightReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	sc := Scenario{
		Name: "replay", Seed: 1,
		Duration: 6 * time.Second, Warmup: 2 * time.Second,
		Workload: &Workload{Kind: "kv-tier", Rate: 60},
		Faults:   &FaultPlan{LossRate: 0.2},
		Robust:   true,
	}
	cfg, err := sc.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}

	var buf bytes.Buffer
	run, err := RecordRubis(cfg, true, &buf)
	if err != nil {
		t.Fatalf("RecordRubis: %v", err)
	}
	if run.Throughput <= 0 {
		t.Error("trace-driven run served nothing; replay check is near-vacuous")
	}
	if run.Robustness.FaultDrops == 0 {
		t.Error("loss plan dropped nothing; replay check is near-vacuous")
	}
	rep, err := ReplayRubis(buf.Bytes())
	if err != nil {
		t.Fatalf("ReplayRubis: %v", err)
	}
	if rep.Divergence != nil {
		t.Errorf("trace-driven run does not replay deterministically: %v", rep.Divergence)
	}
	if rep.Events == 0 {
		t.Error("trace-driven run recorded no flight events")
	}
}

// TestScenarioValidation: malformed scenarios are diagnosable errors
// from Validate/Compile, never panics.
func TestScenarioValidation(t *testing.T) {
	dur := 10 * time.Second
	cases := []struct {
		name string
		sc   Scenario
		want string
	}{
		{"unknown kind", Scenario{Workload: &Workload{Kind: "mystery"}}, "unknown generator kind"},
		{"negative rate", Scenario{Workload: &Workload{Kind: "diurnal", Rate: -3}}, "negative"},
		{"negative duration", Scenario{Duration: -dur}, "negative duration"},
		{"warmup swallows run", Scenario{Duration: dur, Warmup: dur}, "no measurement window"},
		{"negative load", Scenario{LoadFactor: -1}, "negative load factor"},
		{"negative request timeout", Scenario{RequestTimeout: -time.Second}, "negative RequestTimeout"},
		{"trace without path", Scenario{Workload: &Workload{Kind: "trace"}}, "requires a path"},
		{"path on closed loop", Scenario{Workload: &Workload{Kind: "sessions", Path: "x.wtrace"}}, "does not take a trace path"},
		{"bad mix", Scenario{Workload: &Workload{Mix: "replay"}}, "unknown workload mix"},
		{"bad shed policy", Scenario{Overload: &OverloadControl{Policy: "random"}}, "unknown shed policy"},
		{"negative replicas", Scenario{Failover: &FailoverControl{Replicas: -1}}, "negative replica count"},
		{"overlapping crashes", Scenario{Faults: &FaultPlan{Crashes: []CrashWindow{
			{Island: "ixp", Start: time.Second, Duration: 2 * time.Second},
			{Island: "ixp", Start: 2 * time.Second, Duration: time.Second},
		}}}, "overlaps"},
		{"overlapping replica windows", Scenario{Faults: &FaultPlan{
			ControllerCrashes:    []ReplicaWindow{{Replica: 0, Start: time.Second, Duration: 2 * time.Second}},
			ControllerPartitions: []ReplicaWindow{{Replica: 0, Start: 2 * time.Second, Duration: time.Second}},
		}}, "overlaps"},
		{"overlapping partitions", Scenario{Faults: &FaultPlan{Partitions: []Partition{
			{Start: time.Second, Duration: 2 * time.Second, Channels: []string{"mailbox:to-host"}},
			{Start: 2 * time.Second, Duration: time.Second},
		}}}, "overlaps"},
		{"bad governor", Scenario{Energy: &EnergyControl{Governor: "turbo"}}, "unknown governor"},
		{"negative QoS target", Scenario{Energy: &EnergyControl{QoSTargetP95: -time.Second}}, "negative QoS target"},
		{"x86 point over max", Scenario{Energy: &EnergyControl{
			X86Points: []DVFSPoint{{MHz: 4000, Voltage: 1}},
		}}, "MHz outside"},
		{"x86 point bad voltage", Scenario{Energy: &EnergyControl{
			X86Points: []DVFSPoint{{MHz: 2000, Voltage: 1.3}},
		}}, "voltage"},
		{"unsorted x86 table", Scenario{Energy: &EnergyControl{
			X86Points: []DVFSPoint{{MHz: 2666, Voltage: 1}, {MHz: 1333, Voltage: 0.85}},
		}}, "not strictly increasing"},
		{"IXP pool cap out of range", Scenario{Energy: &EnergyControl{IXPMaxPools: 99}}, "pool cap"},
		{"too many sessions", Scenario{Workload: &Workload{Sessions: maxScenarioSessions + 1}}, "closed-loop sessions"},
		{"load factor multiplies sessions", Scenario{LoadFactor: maxScenarioSessions}, "closed-loop sessions"},
		{"too many requests", Scenario{Duration: 100 * time.Second, Workload: &Workload{Kind: "kv-tier", Rate: 20_000}}, "arrivals over 1m40s"},
		{"default duration counts", Scenario{Workload: &Workload{Kind: "diurnal", Rate: 20_000}}, "arrivals over 1m10s"},
		{"spike multiplies requests", Scenario{Duration: 10 * time.Second, Workload: &Workload{Kind: "flash-crowd", Rate: 100, SpikeFactor: 1e4}}, "over the cap"},
		{"update period multiplies requests", Scenario{Duration: 10 * time.Second, Workload: &Workload{Kind: "ml-serving", UpdatePeriod: time.Microsecond}}, "over the cap"},
		{"negative update period", Scenario{Workload: &Workload{Kind: "ml-serving", UpdatePeriod: -time.Second}}, "update period"},
		{"too many replicas", Scenario{Failover: &FailoverControl{Replicas: maxScenarioReplicas + 1}}, "controller replicas"},
		{"batch too large", Scenario{Workload: &Workload{Kind: "ml-serving", Batch: maxScenarioBatch + 1}}, "batch size"},
	}
	for _, tc := range cases {
		err := tc.sc.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}

	// The caps leave every committed spec valid: the bench specs, the
	// scenario catalog at the calibrated 70 s, and the chaos corpus.
	for i, data := range committedSpecs(t, 70*time.Second) {
		if _, err := ParseScenario(data); err != nil {
			t.Errorf("committed spec %d: %v", i, err)
		}
	}

	// Disjoint windows on distinct targets validate fine.
	ok := Scenario{Faults: &FaultPlan{
		Crashes: []CrashWindow{
			{Island: "ixp", Start: time.Second, Duration: time.Second},
			{Island: "x86", Start: time.Second, Duration: time.Second},
			{Island: "ixp", Start: 3 * time.Second, Duration: time.Second},
		},
	}}
	if err := ok.Validate(); err != nil {
		t.Errorf("disjoint windows rejected: %v", err)
	}

	// Compile pre-flights trace materialization: a missing file and an
	// unresolvable class map are errors here, not panics at run time.
	missing := Scenario{Workload: &Workload{Kind: "trace", Path: "/nonexistent/x.wtrace"}}
	if _, err := missing.Compile(); err == nil {
		t.Error("Compile accepted a missing trace file")
	}
	badMap := Scenario{Workload: &Workload{
		Kind: "diurnal", ClassMap: map[string]string{"browse": "NotAType"},
	}}
	if _, err := badMap.Compile(); err == nil || !strings.Contains(err.Error(), "not a RUBiS request type") {
		t.Errorf("Compile of a bad class map: %v", err)
	}
}

// TestTraceWorkloadSizeCaps: a recorded trace obeys the same size caps as
// a generated one. A path naming an endless stream fails at the byte cap
// instead of reading until memory runs out, and a trace holding more
// requests than a generator may draw is rejected by Compile.
func TestTraceWorkloadSizeCaps(t *testing.T) {
	if _, err := os.Stat("/dev/zero"); err == nil {
		endless := Scenario{Workload: &Workload{Kind: "trace", Path: "/dev/zero"}}
		start := time.Now()
		_, err := endless.Compile()
		if err == nil || !strings.Contains(err.Error(), "byte cap") {
			t.Errorf("Compile of an endless trace path: %v, want the byte-cap error", err)
		}
		if wall := time.Since(start); wall > 30*time.Second {
			t.Errorf("endless trace path took %v to fail", wall)
		}
	} else {
		t.Log("no /dev/zero; endless-path case skipped")
	}

	reqs := make([]scenario.Req, maxScenarioRequests+1)
	for i := range reqs {
		reqs[i] = scenario.Req{T: sim.Time(i) * sim.Microsecond, Class: "browse"}
	}
	path := filepath.Join(t.TempDir(), "big.wtrace")
	if err := (&scenario.Trace{Seed: 1, Reqs: reqs}).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	big := Scenario{Workload: &Workload{Kind: "trace", Path: path}}
	if _, err := big.Compile(); err == nil || !strings.Contains(err.Error(), "over the cap") {
		t.Errorf("Compile of a %d-request trace: %v, want the request-cap error", len(reqs), err)
	}
}

// TestParseScenario: the JSON form decodes strictly — typoed knobs are
// errors, not silent defaults.
func TestParseScenario(t *testing.T) {
	good := []byte(`{"name":"x","duration":10000000000,"workload":{"kind":"flash-crowd","rate":20}}`)
	sc, err := ParseScenario(good)
	if err != nil {
		t.Fatalf("ParseScenario: %v", err)
	}
	if sc.Name != "x" || sc.Workload.Kind != "flash-crowd" || sc.Workload.Rate != 20 {
		t.Fatalf("decoded %+v", sc)
	}
	if _, err := ParseScenario([]byte(`{"workload":{"kimd":"flash-crowd"}}`)); err == nil {
		t.Error("ParseScenario accepted an unknown field")
	}
	if _, err := ParseScenario([]byte(`{"workload":{"kind":"mystery"}}`)); err == nil {
		t.Error("ParseScenario accepted an invalid spec")
	}
}

// TestScenarioCatalogCoverage: the catalog stays in sync with the
// generator families — every family appears at least once (diurnal
// appears twice: the clean baseline and the energy-governed variant).
func TestScenarioCatalogCoverage(t *testing.T) {
	seen := make(map[string]int)
	for _, sc := range ScenarioCatalog(20 * time.Second) {
		if err := sc.Validate(); err != nil {
			t.Errorf("catalog scenario %q does not validate: %v", sc.Name, err)
		}
		seen[sc.Workload.Kind]++
	}
	for _, k := range scenario.Kinds() {
		if seen[string(k)] < 1 {
			t.Errorf("generator family %q missing from the catalog", k)
		}
	}
	energized := 0
	for _, sc := range ScenarioCatalog(20 * time.Second) {
		if sc.Energy != nil {
			energized++
		}
	}
	if energized == 0 {
		t.Error("catalog has no energy-governed scenario")
	}
}
