package power

import (
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sim"
)

// saturated builds a platform with two CPU-hog guests, metered the way
// the power-cap experiment meters it: the energy subsystem with its
// governor off.
func saturated(seed int64) (*platform.Platform, func()) {
	p := platform.New(platform.Config{Seed: seed, Energy: &platform.EnergyConfig{Governor: "off"}})
	a := p.AddGuest("hog-a", 256)
	b := p.AddGuest("hog-b", 256)
	churn := func(d interface {
		SubmitFunc(sim.Time, string, func())
	}) {
		var next func()
		next = func() { d.SubmitFunc(5*sim.Millisecond, "hog", next) }
		next()
	}
	start := func() {
		churn(a)
		churn(b)
	}
	return p, start
}

// reading is the metered watts of one island of p.
func reading(p *platform.Platform, island string) Reading {
	return Reading{Name: island, Watts: func() float64 { return p.EnergyMeter.Watts(island) }}
}

func TestCapActuator(t *testing.T) {
	p, _ := saturated(3)
	a := NewCapActuator(p.Ctl)
	d := p.Guests()[0]
	// Throttle from uncapped (=100) down by 30.
	if err := a.ApplyTune(d.ID(), -30); err != nil {
		t.Fatal(err)
	}
	if d.Cap() != 70 {
		t.Fatalf("cap = %d, want 70", d.Cap())
	}
	// Floor at MinCap.
	if err := a.ApplyTune(d.ID(), -1000); err != nil {
		t.Fatal(err)
	}
	if d.Cap() != a.MinCap {
		t.Fatalf("cap = %d, want floor %d", d.Cap(), a.MinCap)
	}
	// Restoring to >=100 uncaps.
	if err := a.ApplyTune(d.ID(), +200); err != nil {
		t.Fatal(err)
	}
	if d.Cap() != 0 {
		t.Fatalf("cap = %d, want uncapped", d.Cap())
	}
	// Trigger = emergency uncap.
	if err := a.ApplyTune(d.ID(), -30); err != nil {
		t.Fatal(err)
	}
	if err := a.ApplyTrigger(d.ID()); err != nil {
		t.Fatal(err)
	}
	if d.Cap() != 0 {
		t.Fatal("trigger did not uncap")
	}
	if err := a.ApplyTune(99, -10); err == nil {
		t.Fatal("unknown entity accepted")
	}
	if err := a.ApplyTrigger(99); err == nil {
		t.Fatal("unknown entity trigger accepted")
	}
}

// powerIsland registers a dedicated power-management island whose actuator
// is the CapActuator (the power agent of the x86 island).
func powerIsland(p *platform.Platform) *core.Agent {
	act := NewCapActuator(p.Ctl)
	agent := core.NewAgent("x86-power", nil, p.Controller.Route, act)
	if err := p.Controller.RegisterIsland(core.IslandHandle{Name: "x86-power", Local: agent.Deliver}); err != nil {
		panic(err)
	}
	return agent
}

func TestBudgeterEnforcesCap(t *testing.T) {
	p, start := saturated(4)
	powerIsland(p)
	start()

	// Cap below the saturated draw (~140 + ~19) so throttling must engage.
	budget := NewBudgeter(p.Sim, BudgeterConfig{CapWatts: 120}, p.X86Agent, p.HV,
		[]Reading{reading(p, platform.X86Island), reading(p, platform.IXPIsland)},
		[]Target{
			{Island: "x86-power", Entity: p.Guests()[0].ID(), Step: 10},
			{Island: "x86-power", Entity: p.Guests()[1].ID(), Step: 10},
		})
	stop := budget.Start()
	p.Sim.RunUntil(60 * sim.Second)
	stop()

	if budget.OverCapPeriods() == 0 {
		t.Fatal("budget never saw the platform over cap")
	}
	if budget.Actions() == 0 {
		t.Fatal("budgeter took no actions")
	}
	// Steady state: the last 10 seconds of total power sit at or below the
	// cap (small excursions allowed for control lag).
	series := budget.Series().Total
	var tail, n float64
	for _, pt := range series.Points() {
		if pt.T > 50*sim.Second {
			tail += pt.V
			n++
		}
	}
	if n == 0 {
		t.Fatal("no tail samples")
	}
	if avg := tail / n; avg > 125 {
		t.Fatalf("steady-state power = %.1fW, cap 120", avg)
	}
	// At least one guest ended up capped.
	capped := false
	for _, d := range p.Guests() {
		if d.Cap() != 0 {
			capped = true
		}
	}
	if !capped {
		t.Fatal("no guest was throttled")
	}
	if budget.Series().PerIsland["x86"].Len() == 0 || budget.Series().PerIsland["ixp"].Len() == 0 {
		t.Fatal("per-island series missing")
	}
}

func TestBudgeterRestoresWhenLoadDrops(t *testing.T) {
	p, start := saturated(5)
	powerIsland(p)
	start()
	budget := NewBudgeter(p.Sim, BudgeterConfig{CapWatts: 110, Headroom: 10}, p.X86Agent, p.HV,
		[]Reading{reading(p, platform.X86Island)},
		[]Target{
			{Island: "x86-power", Entity: p.Guests()[0].ID(), Step: 10},
			{Island: "x86-power", Entity: p.Guests()[1].ID(), Step: 10},
		})
	budget.Start()
	p.Sim.RunUntil(40 * sim.Second)
	throttledSteps := 0
	for _, tg := range []Target{
		{Island: "x86-power", Entity: p.Guests()[0].ID(), Step: 10},
		{Island: "x86-power", Entity: p.Guests()[1].ID(), Step: 10},
	} {
		throttledSteps += budget.Throttled(tg)
	}
	if throttledSteps == 0 {
		t.Fatal("nothing throttled under saturation")
	}
	// Saturating tasks stop arriving once their current chain completes is
	// not directly controllable; emulate load drop by capping both hogs'
	// task streams via a long idle: stop submitting by parking weights is
	// not possible, so instead verify restore logic directly with an idle
	// platform below.
	p2, _ := saturated(6)
	powerIsland(p2)
	b2 := NewBudgeter(p2.Sim, BudgeterConfig{CapWatts: 200, Headroom: 5}, p2.X86Agent, p2.HV,
		[]Reading{reading(p2, platform.X86Island)},
		[]Target{{Island: "x86-power", Entity: p2.Guests()[0].ID(), Step: 10}})
	// Pre-throttle manually, then let the idle platform restore it.
	act := NewCapActuator(p2.Ctl)
	if err := act.ApplyTune(p2.Guests()[0].ID(), -40); err != nil {
		t.Fatal(err)
	}
	b2.throttled[Target{Island: "x86-power", Entity: p2.Guests()[0].ID(), Step: 10}] = 4
	b2.Start()
	p2.Sim.RunUntil(10 * sim.Second)
	if got := p2.Guests()[0].Cap(); got != 0 {
		t.Fatalf("cap = %d after restore window, want uncapped", got)
	}
}

func TestBudgeterValidation(t *testing.T) {
	p, _ := saturated(7)
	agent := p.X86Agent
	readings := []Reading{reading(p, platform.X86Island)}
	targets := []Target{{Island: "x86", Entity: 1, Step: 10}}
	for _, fn := range []func(){
		func() { NewBudgeter(p.Sim, BudgeterConfig{}, agent, p.HV, readings, targets) },
		func() { NewBudgeter(p.Sim, BudgeterConfig{CapWatts: 100}, nil, p.HV, readings, targets) },
		func() { NewBudgeter(p.Sim, BudgeterConfig{CapWatts: 100}, agent, p.HV, nil, targets) },
		func() { NewBudgeter(p.Sim, BudgeterConfig{CapWatts: 100}, agent, p.HV, readings, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid budgeter construction did not panic")
				}
			}()
			fn()
		}()
	}
}
