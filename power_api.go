package repro

import (
	"fmt"
	"time"

	"repro/internal/energy"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/stats"
)

// PowerCapConfig parameterizes the coordinated platform power-cap
// experiment (the paper's second motivating use case, built from the same
// Tune mechanism): the cap is a constraint of the coordinated energy
// governor.
type PowerCapConfig struct {
	Seed     int64
	CapWatts float64       // platform budget (default 120)
	Duration time.Duration // default 60s
	Guests   int           // CPU-saturating guest VMs (default 2)
}

// applyDefaults fills each zero field with its default and panics on a
// negative one.
func (c *PowerCapConfig) applyDefaults() {
	switch {
	case c.CapWatts < 0:
		panic(fmt.Sprintf("repro: negative CapWatts %g", c.CapWatts))
	case c.Duration < 0:
		panic(fmt.Sprintf("repro: negative Duration %v", c.Duration))
	case c.Guests < 0:
		panic(fmt.Sprintf("repro: negative Guests %d", c.Guests))
	}
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

// PowerCapRun reports how the coordinated governor held the platform to
// its cap.
type PowerCapRun struct {
	CapWatts        float64
	UncappedWatts   float64 // steady power with the governor off (same workload)
	SteadyWatts     float64 // mean power over the final quarter of the run
	OverCapPeriods  int
	ThrottleActions int           // cap rung changes the governor sent
	FinalX86MHz     int           // x86 operating point at the end of the run
	FinalIXPPools   int           // active IXP microengine pools at the end
	Series          []SeriesPoint // total platform power over time

	// Energy ledgers for the capped run, integrated by the energy meter —
	// the same integration the cap is checked against.
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

// RunPowerCap saturates a two-island platform and lets the coordinated
// energy governor hold a platform-level cap, stepping operating points
// purely through coordination Tunes to the islands' DVFS agents.
func RunPowerCap(cfg PowerCapConfig) *PowerCapRun {
	cfg.applyDefaults()

	build := func(ecfg platform.EnergyConfig) *platform.Platform {
		p := platform.New(platform.Config{Seed: cfg.Seed, Energy: &ecfg})
		for i := 0; i < cfg.Guests; i++ {
			g := p.AddGuest("hog", 256)
			var next func()
			next = func() { g.SubmitFunc(5*sim.Millisecond, "hog", next) }
			next()
		}
		return p
	}

	// Reference run with the governor off for the uncapped draw.
	ref := build(platform.EnergyConfig{Governor: energy.ModeOff})
	ref.Sim.RunUntil(toSim(cfg.Duration))
	ref.EnergyMeter.Flush()
	uncapped := ref.EnergyMeter.PlatformWatts()

	p := build(platform.EnergyConfig{Governor: energy.ModeCoordinated, CapWatts: cfg.CapWatts})
	total := stats.NewTimeSeries("power-total")
	p.Sim.Ticker(p.EnergyCfg.Period, func() {
		total.Add(p.Sim.Now(), p.EnergyMeter.PlatformWatts())
		p.EnergyGov.Step(0, 0)
	})
	p.Sim.RunUntil(toSim(cfg.Duration))

	p.EnergyMeter.Flush()
	run := &PowerCapRun{
		CapWatts:        cfg.CapWatts,
		UncappedWatts:   uncapped,
		PlatformJoules:  energy.Joules(p.EnergyMeter.PlatformNJ()),
		X86Joules:       joulesOrZero(p.EnergyMeter.IslandNJ(platform.X86Island)),
		IXPJoules:       joulesOrZero(p.EnergyMeter.IslandNJ(platform.IXPIsland)),
		ThrottleActions: p.EnergyGov.Actions(),
		FinalX86MHz:     p.X86DVFS.Current().Level,
		FinalIXPPools:   p.IXPDVFS.Current().Level,
		Series:          seriesPoints(total),
	}
	tailStart := toSim(cfg.Duration).Scale(0.75)
	var sum float64
	var n int
	for _, pt := range total.Points() {
		if pt.V > cfg.CapWatts {
			run.OverCapPeriods++
		}
		if pt.T >= tailStart {
			sum += pt.V
			n++
		}
	}
	if n > 0 {
		run.SteadyWatts = sum / float64(n)
	}
	return run
}
