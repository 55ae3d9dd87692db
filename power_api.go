package repro

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/xen"
)

// PowerCapConfig parameterizes the coordinated platform power-cap
// experiment (the paper's second motivating use case, built from the same
// Tune mechanism).
type PowerCapConfig struct {
	Seed     int64
	CapWatts float64       // platform budget (default 120)
	Duration time.Duration // default 60s
	Guests   int           // CPU-saturating guest VMs (default 2)
}

func (c *PowerCapConfig) applyDefaults() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.CapWatts <= 0 {
		c.CapWatts = 120
	}
	if c.Duration == 0 {
		c.Duration = 60 * time.Second
	}
	if c.Guests == 0 {
		c.Guests = 2
	}
}

// PowerCapRun reports how the budgeter held the platform to its cap.
type PowerCapRun struct {
	CapWatts        float64
	UncappedWatts   float64 // steady power with no budgeter (same workload)
	SteadyWatts     float64 // mean power over the final quarter of the run
	OverCapPeriods  int
	ThrottleActions int
	FinalGuestCaps  map[string]int // xm-style CPU caps after convergence
	Series          []SeriesPoint  // total platform power over time

	// Energy ledgers for the capped run, integrated by the energy meter —
	// the same integration cap enforcement samples its watts from.
	PlatformJoules float64
	X86Joules      float64
	IXPJoules      float64
}

// joulesOrZero converts an island ledger lookup to joules, treating a
// missing island as an empty ledger.
func joulesOrZero(nj int64, err error) float64 {
	if err != nil {
		return 0
	}
	return energy.Joules(nj)
}

// RunPowerCap saturates a two-island platform and lets the power budgeter
// enforce a platform-level cap purely through coordination Tunes.
func RunPowerCap(cfg PowerCapConfig) *PowerCapRun {
	cfg.applyDefaults()

	build := func(withBudgeter bool) (*platform.Platform, *power.Budgeter) {
		// The energy subsystem's meter (governor off: metering only) is the
		// single source of modeled watts — cap enforcement and the joules
		// ledgers read the same integration, no separate sampling path.
		p := platform.New(platform.Config{
			Seed:   cfg.Seed,
			Energy: &platform.EnergyConfig{Governor: "off"},
		})
		var guests []*xen.Domain
		for i := 0; i < cfg.Guests; i++ {
			guests = append(guests, p.AddGuest("hog", 256))
		}
		for _, g := range guests {
			g := g
			var next func()
			next = func() { g.SubmitFunc(5*sim.Millisecond, "hog", next) }
			next()
		}
		if !withBudgeter {
			return p, nil
		}
		// The x86 power agent translates Tunes into CPU-cap adjustments.
		act := power.NewCapActuator(p.Ctl)
		agent := core.NewAgent("x86-power", nil, p.Controller.Route, act)
		if err := p.Controller.RegisterIsland(core.IslandHandle{Name: "x86-power", Local: agent.Deliver}); err != nil {
			panic(fmt.Sprintf("repro: registering x86 power island: %v", err))
		}
		var targets []power.Target
		for _, g := range guests {
			targets = append(targets, power.Target{Island: "x86-power", Entity: g.ID(), Step: 10})
		}
		meter := p.EnergyMeter
		b := power.NewBudgeter(p.Sim, power.BudgeterConfig{CapWatts: cfg.CapWatts},
			p.X86Agent, p.HV,
			[]power.Reading{
				{Name: "x86", Watts: func() float64 { return meter.Watts(platform.X86Island) }},
				{Name: "ixp", Watts: func() float64 { return meter.Watts(platform.IXPIsland) }},
			},
			targets)
		b.Start()
		return p, b
	}

	// Reference run without the budgeter for the uncapped draw.
	ref, _ := build(false)
	ref.Sim.RunUntil(toSim(cfg.Duration))
	ref.EnergyMeter.Flush()
	uncapped := ref.EnergyMeter.PlatformWatts()

	p, b := build(true)
	p.Sim.RunUntil(toSim(cfg.Duration))

	p.EnergyMeter.Flush()
	run := &PowerCapRun{
		CapWatts:        cfg.CapWatts,
		UncappedWatts:   uncapped,
		PlatformJoules:  energy.Joules(p.EnergyMeter.PlatformNJ()),
		X86Joules:       joulesOrZero(p.EnergyMeter.IslandNJ(platform.X86Island)),
		IXPJoules:       joulesOrZero(p.EnergyMeter.IslandNJ(platform.IXPIsland)),
		OverCapPeriods:  b.OverCapPeriods(),
		ThrottleActions: b.Actions(),
		FinalGuestCaps:  map[string]int{},
		Series:          seriesPoints(b.Series().Total),
	}
	tailStart := toSim(cfg.Duration).Scale(0.75)
	var sum float64
	var n int
	for _, pt := range b.Series().Total.Points() {
		if pt.T >= tailStart {
			sum += pt.V
			n++
		}
	}
	if n > 0 {
		run.SteadyWatts = sum / float64(n)
	}
	for i, g := range p.Guests() {
		run.FinalGuestCaps[g.Name()+"-"+strconv.Itoa(i)] = g.Cap()
	}
	return run
}
