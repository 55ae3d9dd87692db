package energy

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/ixp"
	"repro/internal/sim"
)

// TestDefaultTablesAnchor: both default tables validate, and their top
// points reproduce the pre-DVFS power envelopes exactly (60W..140W on x86,
// an 18W static floor on the IXP) so arming the energy subsystem with the
// governor off changes no modeled watts.
func TestDefaultTablesAnchor(t *testing.T) {
	x86 := DefaultX86Table()
	if err := ValidateTable("x86", x86); err != nil {
		t.Fatalf("default x86 table: %v", err)
	}
	top := x86[len(x86)-1]
	if top.StaticW != 60 || top.StaticW+top.DynW != 140 {
		t.Errorf("x86 top point envelope %g..%g W, want 60..140", top.StaticW, top.StaticW+top.DynW)
	}
	ixpT := DefaultIXPTable()
	if err := ValidateTable("ixp", ixpT); err != nil {
		t.Fatalf("default ixp table: %v", err)
	}
	if len(ixpT) != ixp.NumMEPools {
		t.Errorf("ixp table has %d points, want %d", len(ixpT), ixp.NumMEPools)
	}
	if floor := ixpT[len(ixpT)-1].StaticW; floor != 18 {
		t.Errorf("ixp all-pools static floor %g W, want 18", floor)
	}
}

// TestWattsMonotone: modeled power is monotone in utilization at every
// operating point, and monotone in ladder position at every utilization —
// the property that makes a downshift under a closed-loop (fixed-
// utilization) workload always save power. Note energy per unit of *work*
// is deliberately not monotone (race-to-idle); the governors exploit the
// fixed-time form.
func TestWattsMonotone(t *testing.T) {
	pts := append(DefaultX86Table(), DefaultIXPTable()...)
	inUtil := func(u1, u2 float64) bool {
		u1, u2 = clamp01(u1), clamp01(u2)
		if u1 > u2 {
			u1, u2 = u2, u1
		}
		for _, p := range pts {
			if p.Watts(u1) > p.Watts(u2) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(inUtil, nil); err != nil {
		t.Errorf("power not monotone in utilization: %v", err)
	}
	inLadder := func(u float64) bool {
		u = clamp01(u)
		for _, table := range [][]OperatingPoint{DefaultX86Table(), DefaultIXPTable()} {
			for i := 1; i < len(table); i++ {
				if table[i-1].Watts(u) > table[i].Watts(u) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(inLadder, nil); err != nil {
		t.Errorf("power not monotone in ladder position: %v", err)
	}
}

// clamp01 folds an arbitrary quick-generated float into [0, 1].
func clamp01(u float64) float64 {
	u = math.Abs(u)
	if !(u <= 1) { // also catches NaN and Inf
		u = math.Mod(u, 1)
		if math.IsNaN(u) {
			u = 0.5
		}
	}
	return u
}

// TestWattsClamp: utilization outside [0,1] clamps instead of
// extrapolating.
func TestWattsClamp(t *testing.T) {
	p := DefaultX86Table()[0]
	if p.Watts(-3) != p.Watts(0) || p.Watts(7) != p.Watts(1) {
		t.Errorf("Watts does not clamp: %g/%g vs %g/%g", p.Watts(-3), p.Watts(0), p.Watts(7), p.Watts(1))
	}
}

// TestValidateTableErrors: the table validator rejects each malformation
// with a diagnosable error.
func TestValidateTableErrors(t *testing.T) {
	good := DefaultX86Table()
	cases := []struct {
		name string
		pts  []OperatingPoint
	}{
		{"empty", nil},
		{"non-positive level", []OperatingPoint{{Level: 0, StaticW: 1}}},
		{"non-increasing", []OperatingPoint{good[1], good[0]}},
		{"negative power", []OperatingPoint{{Level: 1, StaticW: -1}}},
		{"negative latency", []OperatingPoint{{Level: 1, Latency: -sim.Second}}},
	}
	for _, tc := range cases {
		if err := ValidateTable("x86", tc.pts); err == nil {
			t.Errorf("%s: table accepted", tc.name)
		}
	}
	if err := ValidateTable("x86", good); err != nil {
		t.Errorf("default table rejected: %v", err)
	}
}

// TestMachineTransitions: a transition holds in-flight for the target
// point's latency (rejecting further requests meanwhile), commits through
// the apply callback, and rolls residency over to the new point.
func TestMachineTransitions(t *testing.T) {
	s := sim.New(1)
	var applied []int
	m, err := NewMachine("x86", s, DefaultX86Table(), len(DefaultX86Table())-1, func(p OperatingPoint) error {
		applied = append(applied, p.Level)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !m.AtTop() || m.AtBottom() || m.InFlight() {
		t.Fatalf("fresh machine state: top=%v bottom=%v inflight=%v", m.AtTop(), m.AtBottom(), m.InFlight())
	}
	if !m.Step(-1) {
		t.Fatal("downshift rejected")
	}
	if !m.InFlight() {
		t.Fatal("transition not in flight")
	}
	if m.Step(-1) || m.SetIndex(0) {
		t.Error("machine accepted a request while in flight")
	}
	if m.Index() != len(DefaultX86Table())-1 {
		t.Error("index moved before the transition committed")
	}
	s.RunUntil(s.Now() + DefaultX86Latency)
	if m.InFlight() || m.Index() != len(DefaultX86Table())-2 || m.Transitions() != 1 {
		t.Fatalf("after latency: inflight=%v index=%d transitions=%d", m.InFlight(), m.Index(), m.Transitions())
	}
	if len(applied) != 1 || applied[0] != 2333 {
		t.Errorf("apply saw %v, want [2333]", applied)
	}
	// Step clamps at the ladder ends; a same-point request is dropped.
	if m.SetIndex(m.Index()) {
		t.Error("machine accepted a transition to the current point")
	}
	if !m.Step(-100) {
		t.Fatal("clamped downshift rejected")
	}
	s.RunUntil(s.Now() + DefaultX86Latency)
	if !m.AtBottom() {
		t.Errorf("Step(-100) landed at index %d, want bottom", m.Index())
	}
}

// TestMachineApplyReject: an apply error leaves the machine at its old
// point — the island, not the ladder, is the source of truth.
func TestMachineApplyReject(t *testing.T) {
	s := sim.New(1)
	reject := true
	m, err := NewMachine("x86", s, DefaultX86Table(), 4, func(OperatingPoint) error {
		if reject {
			return errRejected
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Step(-1)
	s.RunUntil(s.Now() + DefaultX86Latency)
	if m.Index() != 4 || m.Transitions() != 0 {
		t.Fatalf("rejected transition moved the machine: index=%d transitions=%d", m.Index(), m.Transitions())
	}
	reject = false
	m.Step(-1)
	s.RunUntil(s.Now() + DefaultX86Latency)
	if m.Index() != 3 || m.Transitions() != 1 {
		t.Fatalf("accepted transition: index=%d transitions=%d", m.Index(), m.Transitions())
	}
}

var errRejected = errRejectedType{}

type errRejectedType struct{}

func (errRejectedType) Error() string { return "rejected" }

// TestMachineResidencySums: per-state residency (including the open
// interval) sums exactly to the time elapsed since construction, for an
// arbitrary deterministic walk over the ladder.
func TestMachineResidencySums(t *testing.T) {
	s := sim.New(1)
	m, err := NewMachine("x86", s, DefaultX86Table(), 2, func(OperatingPoint) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	start := s.Now()
	rng := sim.NewRand(7)
	for i := 0; i < 200; i++ {
		m.Step(rng.Intn(5) - 2)
		s.RunUntil(s.Now() + sim.Time(rng.Intn(int(3*sim.Millisecond))))
	}
	var sum sim.Time
	for _, r := range m.Residency() {
		if r.Time < 0 {
			t.Fatalf("negative residency in state %s: %v", r.State, r.Time)
		}
		sum += r.Time
	}
	if elapsed := s.Now() - start; sum != elapsed {
		t.Fatalf("residency sums to %v, elapsed %v", sum, elapsed)
	}
}

// TestMeterConservation: every accrual charges the same integer increment
// to an island ledger and the platform ledger, so the island sums equal
// the platform ledger exactly — not approximately — no matter how the
// sources fluctuate.
func TestMeterConservation(t *testing.T) {
	s := sim.New(1)
	w1, w2 := 60.0, 18.0
	m := NewMeter(s, 100*sim.Millisecond, []IslandSource{
		{Name: "x86", Watts: func() float64 { return w1 }},
		{Name: "ixp", Watts: func() float64 { return w2 }},
	})
	rng := sim.NewRand(3)
	for i := 0; i < 50; i++ {
		s.RunUntil(s.Now() + sim.Time(rng.Intn(int(250*sim.Millisecond))))
		w1 = 60 + float64(rng.Intn(80))*0.987
		w2 = 18 + float64(rng.Intn(10))*0.441
	}
	m.Flush()
	a, err := m.IslandNJ("x86")
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.IslandNJ("ixp")
	if err != nil {
		t.Fatal(err)
	}
	if a+b != m.PlatformNJ() {
		t.Fatalf("island ledgers %d + %d != platform %d", a, b, m.PlatformNJ())
	}
	snap := m.Snapshot()
	if snap["x86"] != a || snap["ixp"] != b || snap["platform"] != a+b {
		t.Errorf("snapshot disagrees with ledgers: %v", snap)
	}
	if _, err := m.IslandNJ("gpu"); err == nil {
		t.Error("unknown island ledger lookup succeeded")
	}
}

// TestMeterIntegration: a constant source integrates to exactly
// watts × seconds, and Watts/PlatformWatts report the last closed window.
func TestMeterIntegration(t *testing.T) {
	s := sim.New(1)
	m := NewMeter(s, 100*sim.Millisecond, []IslandSource{
		{Name: "x86", Watts: func() float64 { return 100 }},
	})
	s.RunUntil(10 * sim.Second)
	m.Flush()
	if nj, _ := m.IslandNJ("x86"); Joules(nj) != 1000 {
		t.Fatalf("10s at 100W integrated to %g J, want 1000", Joules(nj))
	}
	if m.Watts("x86") != 100 || m.PlatformWatts() != 100 {
		t.Errorf("window watts %g/%g, want 100", m.Watts("x86"), m.PlatformWatts())
	}
	if m.Watts("gpu") != 0 {
		t.Errorf("unknown island watts %g, want 0", m.Watts("gpu"))
	}
}

// machines builds a zero-latency x86/IXP pair for governor tests so
// transitions commit on the next event dispatch.
func machines(t *testing.T, s *sim.Simulator) (*Machine, *Machine) {
	t.Helper()
	instant := func(pts []OperatingPoint) []OperatingPoint {
		out := append([]OperatingPoint(nil), pts...)
		for i := range out {
			out[i].Latency = 0
		}
		return out
	}
	x86, err := NewMachine("x86", s, instant(DefaultX86Table()), len(DefaultX86Table())-1,
		func(OperatingPoint) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	ixpM, err := NewMachine("ixp", s, instant(DefaultIXPTable()), ixp.NumMEPools-1,
		func(OperatingPoint) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	return x86, ixpM
}

// TestOndemand: the local governor jumps to the top point above the up
// threshold, creeps one rung down below the down threshold, and holds in
// the hysteresis band.
func TestOndemand(t *testing.T) {
	s := sim.New(1)
	x86, _ := machines(t, s)
	util := 0.5
	NewOndemand(s, x86, 100*sim.Millisecond, func() float64 { return util })

	x86.SetIndex(1)
	s.RunUntil(s.Now() + 150*sim.Millisecond) // commit + one tick in the band
	if x86.Index() != 1 {
		t.Fatalf("hysteresis band moved the machine to %d", x86.Index())
	}
	util = 0.95
	s.RunUntil(s.Now() + 100*sim.Millisecond)
	if !x86.AtTop() {
		t.Fatalf("up threshold left the machine at %d", x86.Index())
	}
	util = 0.1
	s.RunUntil(s.Now() + 100*sim.Millisecond)
	if x86.Index() != len(x86.Points())-2 {
		t.Fatalf("down threshold stepped to %d, want one rung", x86.Index())
	}
}

// coordHarness wires a Coordinated governor to zero-latency machines with
// direct (still asynchronous) actuation.
type coordHarness struct {
	s        *sim.Simulator
	g        *Coordinated
	x86, ixp *Machine
	ixpUtil  float64
	boosts   int
	load     float64 // x86 utilization behind a capped harness's watts
}

func newCoordHarness(t *testing.T) *coordHarness {
	s := sim.New(1)
	h := &coordHarness{s: s, ixpUtil: 0.2}
	h.x86, h.ixp = machines(t, s)
	h.g = NewCoordinated(s, CoordinatedConfig{
		Target:          2 * sim.Second,
		X86:             h.x86,
		IXP:             h.ixp,
		IXPUtil:         func() float64 { return h.ixpUtil },
		TuneX86:         func(delta int) { h.x86.Step(delta) },
		TuneIXP:         func(delta int) { h.ixp.Step(delta) },
		TriggerX86:      func() { h.x86.SetIndex(len(h.x86.Points()) - 1) },
		BoostBottleneck: func() { h.boosts++ },
	})
	return h
}

// newCapHarness is newCoordHarness with a platform cap and metered-watts
// sensors reading the machines' committed points at h.load.
func newCapHarness(t *testing.T, capW float64) *coordHarness {
	h := newCoordHarness(t)
	h.load = 1
	h.g.cfg.CapWatts = capW
	h.g.cfg.X86Watts = func() float64 { return h.x86.Current().Watts(h.load) }
	h.g.cfg.IXPWatts = func() float64 { return h.ixp.Current().StaticW + IXPThreadWatts(14) }
	return h
}

// watts is the capped harness's metered platform draw.
func (h *coordHarness) watts() float64 { return h.g.cfg.X86Watts() + h.g.cfg.IXPWatts() }

// step feeds one control window and dispatches the resulting transition.
func (h *coordHarness) step(p95 sim.Time) {
	h.g.Step(p95, 30)
	h.s.RunUntil(h.s.Now() + sim.Millisecond)
}

// idle feeds one control window with no responses.
func (h *coordHarness) idle() {
	h.g.Step(0, 0)
	h.s.RunUntil(h.s.Now() + sim.Millisecond)
}

// TestCoordinatedEscalation: violations escalate in cost order — jump the
// x86 island straight to its top point, then ungate an IXP pool, then
// boost the bottleneck tier at most once per cooldown.
func TestCoordinatedEscalation(t *testing.T) {
	h := newCoordHarness(t)
	h.x86.SetIndex(0)
	h.ixp.SetIndex(0)
	h.s.RunUntil(h.s.Now() + sim.Millisecond)

	over := 3 * sim.Second
	h.step(over)
	if !h.x86.AtTop() {
		t.Fatalf("violation left x86 at index %d, want jump to top", h.x86.Index())
	}
	if h.ixp.Index() != 0 {
		t.Fatalf("first violation touched the IXP (index %d)", h.ixp.Index())
	}
	h.step(over)
	if h.ixp.Index() != 1 {
		t.Fatalf("second violation left IXP at %d, want one pool ungated", h.ixp.Index())
	}
	for i := 0; i < ixp.NumMEPools; i++ {
		h.step(over)
	}
	if !h.ixp.AtTop() {
		t.Fatalf("sustained violations left IXP at %d", h.ixp.Index())
	}
	if h.boosts != 1 {
		t.Fatalf("boost fired %d times inside one cooldown, want 1", h.boosts)
	}
	if h.g.Violations() == 0 {
		t.Error("violations counter never moved")
	}
	// Empty windows are not evidence: they must not escalate or count.
	v := h.g.Violations()
	h.g.Step(over, 0)
	if h.g.Violations() != v {
		t.Error("an empty window counted as a violation")
	}
}

// TestCoordinatedPatience: the x86 downshift waits for x86DownPatience
// consecutive slack windows, a violation pushes the streak to
// -violationPenalty, and the dead zone neither builds nor spends slack.
func TestCoordinatedPatience(t *testing.T) {
	h := newCoordHarness(t)
	h.ixp.SetIndex(0) // park the IXP at bottom so only the x86 rung can fire
	h.s.RunUntil(h.s.Now() + sim.Millisecond)
	top := len(h.x86.Points()) - 1

	slack := 100 * sim.Millisecond // far below headroom*Target
	for i := 0; i < x86DownPatience-1; i++ {
		h.step(slack)
	}
	if h.x86.Index() != top {
		t.Fatalf("downshift after %d slack windows, want %d", x86DownPatience-1, x86DownPatience)
	}
	h.step(slack)
	if h.x86.Index() != top-1 {
		t.Fatalf("no downshift after %d slack windows (index %d)", x86DownPatience, h.x86.Index())
	}
	// The streak was spent: the next downshift needs full patience again.
	for i := 0; i < x86DownPatience-1; i++ {
		h.step(slack)
	}
	if h.x86.Index() != top-1 {
		t.Fatal("second downshift fired before re-proving slack")
	}
	// Dead-zone windows hold the streak where it is.
	h.step(sim.Time(float64(h.g.cfg.Target) * 0.9))
	h.step(slack)
	if h.x86.Index() != top-2 {
		t.Fatalf("dead zone disturbed the slack streak (index %d)", h.x86.Index())
	}
	// A violation costs violationPenalty beyond zero: after re-escalating
	// to top, patience alone is not enough until the penalty is paid down.
	h.step(3 * sim.Second)
	if !h.x86.AtTop() {
		t.Fatal("violation did not re-escalate x86")
	}
	for i := 0; i < violationPenalty+x86DownPatience-1; i++ {
		h.step(slack)
	}
	if h.x86.Index() != top {
		t.Fatal("downshift fired before the violation penalty was paid down")
	}
	h.step(slack)
	if h.x86.Index() != top-1 {
		t.Fatal("downshift never recovered after a violation")
	}
}

// TestCoordinatedIXPGuard: the IXP rung is projected-utilization guarded —
// gating a pool that would push the survivors past ixpDownSafeUtil is
// refused, and the guard uses the post-gating projection, not the current
// utilization.
func TestCoordinatedIXPGuard(t *testing.T) {
	h := newCoordHarness(t)
	slack := 100 * sim.Millisecond

	pools := float64(ixp.NumMEPools)
	h.ixpUtil = 0.55 // projected onto one fewer pool exceeds the safe bound
	h.step(slack)
	if h.ixp.Index() != ixp.NumMEPools-1 {
		t.Fatalf("guard let a pool gate at projected util %.2f", 0.55*pools/(pools-1))
	}
	h.ixpUtil = 0.2 // projected stays well under the safe bound
	h.step(slack)
	if h.ixp.Index() != ixp.NumMEPools-2 {
		t.Fatalf("guard refused a safe gating (index %d)", h.ixp.Index())
	}
}

// TestCoordinatedCapStepsX86First: over the cap the governor sends one
// down-rung per window, x86 first, gates an IXP pool only once x86 sits at
// its bottom point, stops once the draw fits, and skips QoS meanwhile.
func TestCoordinatedCapStepsX86First(t *testing.T) {
	h := newCapHarness(t, 90)
	top := len(h.x86.Points()) - 1
	for i := 1; i <= top; i++ {
		h.g.Step(3*sim.Second, 30) // a QoS violation must not outrank the cap
		h.s.RunUntil(h.s.Now() + sim.Millisecond)
		if h.x86.Index() != top-i || !h.ixp.AtTop() {
			t.Fatalf("over-cap window %d: x86 %d, IXP %d; want x86 %d, IXP at top", i, h.x86.Index(), h.ixp.Index(), top-i)
		}
	}
	if h.g.Violations() != 0 {
		t.Fatalf("over-cap windows counted %d QoS violations", h.g.Violations())
	}
	// x86 is at its bottom point and the platform is still over: gate pools.
	for h.watts() > 90 {
		before := h.ixp.Index()
		h.idle()
		if h.ixp.Index() != before-1 || !h.x86.AtBottom() {
			t.Fatalf("over cap at x86 bottom: IXP %d -> %d, x86 %d", before, h.ixp.Index(), h.x86.Index())
		}
	}
	if got := h.ixp.Index(); got != ixp.NumMEPools-3 {
		t.Fatalf("IXP settled at index %d, want %d", got, ixp.NumMEPools-3)
	}
	if want := top + 2; h.g.Actions() != want {
		t.Fatalf("actions %d, want %d", h.g.Actions(), want)
	}
	h.idle()
	if h.g.Actions() != top+2 {
		t.Fatal("governor acted once the draw fit under the cap")
	}
}

// TestCoordinatedCapRestore: under the cap, a window with no responses
// restores one rung — IXP first, then x86 — only when the draw projected at
// the measured utilization fits; windows with responses leave restoring to
// the QoS logic.
func TestCoordinatedCapRestore(t *testing.T) {
	h := newCapHarness(t, 100)
	h.x86.SetIndex(0)
	h.ixp.SetIndex(0)
	h.s.RunUntil(h.s.Now() + sim.Millisecond)

	// IXP first, one pool per window.
	for i := 1; i < ixp.NumMEPools; i++ {
		h.idle()
		if h.ixp.Index() != i || !h.x86.AtBottom() {
			t.Fatalf("restore window %d: IXP %d, x86 %d", i, h.ixp.Index(), h.x86.Index())
		}
	}
	// Saturated, the next x86 point would draw over the cap: hold.
	if next := h.x86.Points()[1].Watts(1) + h.g.cfg.IXPWatts(); next <= 100 {
		t.Fatalf("test premise: projected %.1fW fits the cap", next)
	}
	for i := 0; i < 3; i++ {
		h.idle()
	}
	if !h.x86.AtBottom() {
		t.Fatalf("restored x86 to %d although the projection exceeds the cap", h.x86.Index())
	}
	// Load drops: every projection fits, but a window with responses in
	// the QoS dead zone still restores nothing.
	h.load = 0
	h.g.Step(sim.Time(float64(h.g.cfg.Target)*0.9), 30)
	h.s.RunUntil(h.s.Now() + sim.Millisecond)
	if !h.x86.AtBottom() {
		t.Fatal("a window with responses restored a rung")
	}
	for i := 1; i < len(h.x86.Points()); i++ {
		h.idle()
		if h.x86.Index() != i {
			t.Fatalf("idle restore window %d: x86 %d", i, h.x86.Index())
		}
	}
}

// BenchmarkEnergyModel measures one meter accrual over both islands —
// the hot path the 100ms metering ticker pays for the whole run.
func BenchmarkEnergyModel(b *testing.B) {
	s := sim.New(1)
	x86 := DefaultX86Table()[4]
	ixpPt := DefaultIXPTable()[ixp.NumMEPools-1]
	util := 0.7
	m := NewMeter(s, 100*sim.Millisecond, []IslandSource{
		{Name: "x86", Watts: func() float64 { return x86.Watts(util) }},
		{Name: "ixp", Watts: func() float64 { return ixpPt.StaticW + IXPThreadWatts(16) }},
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.RunUntil(s.Now() + 100*sim.Millisecond)
	}
	m.Flush()
}
