package repro

// Integration tests of the public facade: each asserts the paper's SHAPE —
// who wins and roughly how — on shortened runs. EXPERIMENTS.md records the
// full-length numbers.

import (
	"strings"
	"testing"
	"time"
)

func testRubisCfg(seed int64) RubisConfig {
	return RubisConfig{Seed: seed, Duration: 70 * time.Second}
}

func TestRubisShapeCoordinationWins(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	base, coord := CompareRubis(testRubisCfg(1))

	// Table 2 shape: coordination raises throughput and efficiency.
	if coord.Throughput <= base.Throughput {
		t.Errorf("throughput: base %.1f >= coord %.1f", base.Throughput, coord.Throughput)
	}
	if coord.Efficiency < base.Efficiency*0.98 {
		t.Errorf("efficiency regressed: %.2f -> %.2f", base.Efficiency, coord.Efficiency)
	}
	// Table 1 shape: the write-class types the paper highlights improve.
	byName := func(r *RubisRun, name string) RequestStats {
		for _, s := range r.PerType {
			if s.Name == name {
				return s
			}
		}
		t.Fatalf("no type %s", name)
		return RequestStats{}
	}
	// Individual low-count types are noisy at this shortened duration, so
	// require the majority of the headline write types to improve; the
	// count-weighted overall mean is asserted below.
	improved := 0
	for _, name := range []string{"PutBid", "StoreBid", "PutComment"} {
		b, c := byName(base, name), byName(coord, name)
		if b.Count == 0 || c.Count == 0 {
			continue
		}
		if c.AvgMs < b.AvgMs {
			improved++
		}
	}
	if improved < 2 {
		t.Errorf("only %d of 3 headline write types improved", improved)
	}
	// Overall mean improves.
	if coord.MeanOverTypes() >= base.MeanOverTypes() {
		t.Errorf("overall mean: base %.0f -> coord %.0f", base.MeanOverTypes(), coord.MeanOverTypes())
	}
	// Figure 5 shape: utilization stays in a sane band and does not collapse.
	if coord.TotalUtil < base.TotalUtil*0.9 {
		t.Errorf("coordination collapsed utilization: %.0f -> %.0f", base.TotalUtil, coord.TotalUtil)
	}
	// Coordination plane actually ran.
	if coord.TunesSent == 0 || coord.TunesApplied == 0 {
		t.Errorf("coordination inactive: %d sent, %d applied", coord.TunesSent, coord.TunesApplied)
	}
	if base.TunesSent != 0 {
		t.Errorf("baseline sent %d tunes", base.TunesSent)
	}
}

func TestRubisBrowsingMixAlwaysImproves(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	// The paper's pure-browsing control run: no read/write transitions, so
	// coordination "always performs better ... for all request types" in
	// the aggregate.
	cfg := testRubisCfg(2)
	cfg.Mix = "browsing"
	base, coord := CompareRubis(cfg)
	if coord.MeanOverTypes() >= base.MeanOverTypes() {
		t.Errorf("browsing mix: coord mean %.0fms >= base %.0fms",
			coord.MeanOverTypes(), base.MeanOverTypes())
	}
}

func TestRubisDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	cfg := RubisConfig{Seed: 3, Duration: 25 * time.Second, Warmup: 5 * time.Second}
	a := RunRubis(cfg, true)
	b := RunRubis(cfg, true)
	if a.Throughput != b.Throughput || a.TunesSent != b.TunesSent {
		t.Fatalf("nondeterministic: (%v,%d) vs (%v,%d)",
			a.Throughput, a.TunesSent, b.Throughput, b.TunesSent)
	}
}

func TestRubisSchemesAllRun(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	for _, s := range []CoordScheme{SchemeOutstanding, SchemeLoadTrack, SchemeClass} {
		cfg := RubisConfig{Seed: 4, Duration: 25 * time.Second, Warmup: 5 * time.Second, Scheme: s}
		r := RunRubis(cfg, true)
		if r.TunesSent == 0 {
			t.Errorf("scheme %s sent no tunes", s)
		}
	}
}

func TestMplayerQoSShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	rows := RunMplayerQoS(1, 40*time.Second)
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Figure 6 shape: Dom2 misses 25 fps at default weights and meets it
	// once the stream-property policy raises weights to 384-512.
	if rows[0].Dom2FPS >= PaperFig6.Dom2Target-1 {
		t.Errorf("base Dom2 = %.1f fps, should clearly miss %g", rows[0].Dom2FPS, PaperFig6.Dom2Target)
	}
	if rows[1].Dom2FPS < PaperFig6.Dom2Target-1 {
		t.Errorf("coordinated Dom2 = %.1f fps, should meet ~%g", rows[1].Dom2FPS, PaperFig6.Dom2Target)
	}
	if rows[1].Dom1Weight != 384 || rows[1].Dom2Weight != 512 {
		t.Errorf("policy weights = %d-%d, want the paper's 384-512", rows[1].Dom1Weight, rows[1].Dom2Weight)
	}
}

func TestMplayerTriggerShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	base, coord := RunMplayerTrigger(1, 90*time.Second)
	if coord.Dom1FPS <= base.Dom1FPS {
		t.Errorf("figure 7: coord %.1f fps <= base %.1f", coord.Dom1FPS, base.Dom1FPS)
	}
	if coord.Triggers == 0 {
		t.Error("no triggers fired")
	}
	if len(coord.CPUUtil) == 0 || len(coord.BufferIn) == 0 {
		t.Error("figure 7 series missing")
	}
}

func TestMplayerInterferenceShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	r := RunMplayerInterference(1, 90*time.Second)
	if r.Dom1ChangePct <= 0 {
		t.Errorf("table 3: Dom1 change %+.2f%%, want positive", r.Dom1ChangePct)
	}
	if r.Dom2ChangePct >= 0 || r.Dom2ChangePct < -30 {
		t.Errorf("table 3: Dom2 change %+.2f%%, want a modest negative", r.Dom2ChangePct)
	}
}

func TestPowerCapShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	r := RunPowerCap(PowerCapConfig{Seed: 1, CapWatts: 120, Duration: 40 * time.Second})
	if r.UncappedWatts <= r.CapWatts {
		t.Fatalf("workload does not exceed the cap: %.1fW vs %.0fW", r.UncappedWatts, r.CapWatts)
	}
	if r.SteadyWatts > r.CapWatts*1.05 {
		t.Errorf("steady power %.1fW exceeds cap %.0fW", r.SteadyWatts, r.CapWatts)
	}
	if r.ThrottleActions == 0 {
		t.Error("no throttle actions")
	}
}

func TestScalabilityShape(t *testing.T) {
	pts := RunCoordScalability(ScalabilityConfig{
		Islands:  []int{4, 128},
		Duration: 2 * time.Second,
	})
	get := func(topo string, n int) ScalabilityPoint {
		for _, p := range pts {
			if p.Topology == topo && p.Islands == n {
				return p
			}
		}
		t.Fatalf("missing point %s/%d", topo, n)
		return ScalabilityPoint{}
	}
	// Star pays two hops + hub; direct pays one hop, independent of scale.
	small := get("star", 4)
	if small.MeanLatencyUs < 300 {
		t.Errorf("star mean latency = %.1fus, want >= 2 hops", small.MeanLatencyUs)
	}
	d := get("direct", 128)
	if d.MeanLatencyUs < 149 || d.MeanLatencyUs > 151 {
		t.Errorf("direct latency = %.1fus, want ~150", d.MeanLatencyUs)
	}
	// The hub saturates at high island counts; distribution does not.
	big := get("star", 128)
	if big.P99LatencyUs < 10*small.P99LatencyUs {
		t.Errorf("hub did not saturate: p99 %.1fus at 128 islands vs %.1fus at 4", big.P99LatencyUs, small.P99LatencyUs)
	}
	for _, p := range pts {
		if p.RoutedPerSec == 0 {
			t.Errorf("%s/%d routed nothing", p.Topology, p.Islands)
		}
	}
}

func TestCoordSchemeMapping(t *testing.T) {
	if SchemeOutstanding.internal().String() != "outstanding" ||
		SchemeLoadTrack.internal().String() != "loadtrack" ||
		SchemeClass.internal().String() != "class" ||
		CoordScheme("?").internal().String() != "outstanding" {
		t.Fatal("scheme mapping wrong")
	}
}

func TestReportFormatters(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	cfg := RubisConfig{Seed: 5, Duration: 25 * time.Second, Warmup: 5 * time.Second}
	base, coord := CompareRubis(cfg)
	for name, out := range map[string]string{
		"fig2":   FormatFig2(base),
		"fig4":   FormatFig4(base, coord),
		"table1": FormatTable1(base, coord),
		"table2": FormatTable2(base, coord),
		"fig5":   FormatFig5(base, coord),
	} {
		if len(out) < 100 {
			t.Errorf("%s output suspiciously short:\n%s", name, out)
		}
	}
	rows := RunMplayerQoS(5, 15*time.Second)
	if out := FormatFig6(rows); len(out) < 100 {
		t.Errorf("fig6 output short:\n%s", out)
	}
	tb, tc := RunMplayerTrigger(5, 30*time.Second)
	if out := FormatFig7(tb, tc); len(out) < 100 {
		t.Errorf("fig7 output short:\n%s", out)
	}
	ir := RunMplayerInterference(5, 30*time.Second)
	if out := FormatTable3(ir); len(out) < 100 {
		t.Errorf("table3 output short:\n%s", out)
	}
	pc := RunPowerCap(PowerCapConfig{Seed: 5, Duration: 20 * time.Second})
	if out := FormatPowerCap(pc); len(out) < 50 {
		t.Errorf("powercap output short:\n%s", out)
	}
	sp := RunCoordScalability(ScalabilityConfig{Islands: []int{2}, Duration: time.Second})
	if out := FormatScalability(sp); len(out) < 50 {
		t.Errorf("scalability output short:\n%s", out)
	}
}

func TestPaperReferenceTablesComplete(t *testing.T) {
	if len(PaperTable1) != 16 {
		t.Fatalf("PaperTable1 has %d entries, want 16", len(PaperTable1))
	}
	for name, v := range PaperTable1 {
		if v[0] <= 0 || v[1] <= 0 {
			t.Errorf("PaperTable1[%s] = %v", name, v)
		}
		// Coordination improved every type in the paper except none; allow
		// equality for BrowseRegions (1491 -> 1490).
		if v[1] > v[0] {
			t.Errorf("PaperTable1[%s]: coord %v worse than base %v (transcription?)", name, v[1], v[0])
		}
	}
}

func TestRubisCoordinationTolerantToMessageLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	// Fault injection: 20% of coordination messages vanish on the mailbox.
	// The outstanding-load translation's decay heals the drift, so the
	// coordinated case must still beat the baseline.
	cfg := testRubisCfg(6)
	cfg.CoordLossRate = 0.2
	base, coord := CompareRubis(cfg)
	if coord.MeanOverTypes() >= base.MeanOverTypes() {
		t.Errorf("lossy coordination regressed: base %.0fms, coord %.0fms",
			base.MeanOverTypes(), coord.MeanOverTypes())
	}
	if coord.TunesApplied >= coord.TunesSent {
		t.Errorf("loss injection inactive: %d sent, %d applied", coord.TunesSent, coord.TunesApplied)
	}
}

// TestRubisRejectsLossRateWithFaults: CoordLossRate is shorthand for a
// fault plan with only LossRate set, so setting it together with Faults
// contradicts itself and must panic with a diagnosable message instead of
// silently dropping one of the two.
func TestRubisRejectsLossRateWithFaults(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.HasPrefix(msg, "repro: ") || !strings.Contains(msg, "CoordLossRate") {
			t.Errorf("RunRubis panicked with %q, want a repro message naming CoordLossRate", msg)
		}
	}()
	RunRubis(RubisConfig{CoordLossRate: 0.1, Faults: &FaultPlan{LossRate: 0.2}}, true)
}

// panicMessage runs f and returns the string it panicked with ("" when it
// returned normally).
func panicMessage(f func()) (msg string) {
	defer func() { msg, _ = recover().(string) }()
	f()
	return ""
}

// TestFacadesRejectNegativeConfig: zero selects a facade's default, and
// any other out-of-range value panics with a repro message naming the
// field instead of silently turning into the default.
func TestFacadesRejectNegativeConfig(t *testing.T) {
	cases := []struct {
		field string
		run   func()
	}{
		{"Sessions", func() { RunRubis(RubisConfig{Sessions: -1}, true) }},
		{"Duration", func() { RunRubis(RubisConfig{Duration: -time.Second}, true) }},
		{"Warmup", func() { RunRubis(RubisConfig{Warmup: -time.Second}, false) }},
		{"LoadFactor", func() { RunRubis(RubisConfig{LoadFactor: -0.5}, true) }},
		{"RequestTimeout", func() { RunRubis(RubisConfig{RequestTimeout: -time.Second}, true) }},
		{"CoordLatency", func() { RunRubis(RubisConfig{CoordLatency: -time.Microsecond}, true) }},
		{"IntrModeration", func() { RunRubis(RubisConfig{IntrModeration: -time.Microsecond}, false) }},
		{"Heartbeat", func() { RunRubis(RubisConfig{Robust: true, Heartbeat: -time.Second}, true) }},
		{"Mix", func() { RunRubis(RubisConfig{Mix: "browse"}, true) }},
		{"CapWatts", func() { RunPowerCap(PowerCapConfig{CapWatts: -5}) }},
		{"Duration", func() { RunPowerCap(PowerCapConfig{Duration: -time.Second}) }},
		{"Guests", func() { RunPowerCap(PowerCapConfig{Guests: -1}) }},
		{"RatePerIsland", func() { RunCoordScalability(ScalabilityConfig{RatePerIsland: -1}) }},
		{"Duration", func() { RunCoordScalability(ScalabilityConfig{Duration: -time.Second}) }},
		{"Reps", func() { RunCoordScalability(ScalabilityConfig{Reps: -2}) }},
		{"Islands", func() { RunCoordScalability(ScalabilityConfig{Islands: []int{2, 0}}) }},
	}
	for _, tc := range cases {
		msg := panicMessage(tc.run)
		if !strings.HasPrefix(msg, "repro: ") || !strings.Contains(msg, tc.field) {
			t.Errorf("%s: panicked with %q, want a repro message naming the field", tc.field, msg)
		}
	}

	// The zero configs still select every default.
	if err := (RubisConfig{}).Validate(); err != nil {
		t.Errorf("zero RubisConfig: %v", err)
	}
	if got := (RubisConfig{}).internal(true).Client.Sessions; got != 80 {
		t.Errorf("zero RubisConfig runs %d sessions, want the default 80", got)
	}
	pc := PowerCapConfig{}
	pc.applyDefaults()
	if pc.CapWatts != 120 || pc.Duration != 60*time.Second || pc.Guests != 2 {
		t.Errorf("zero PowerCapConfig defaults to %+v", pc)
	}
	sc := ScalabilityConfig{}
	sc.applyDefaults()
	if len(sc.Islands) != 8 || sc.RatePerIsland != 200 || sc.Duration != 10*time.Second || sc.Reps != 1 {
		t.Errorf("zero ScalabilityConfig defaults to %+v", sc)
	}
}
