package platform

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/flight"
	"repro/internal/ixp"
	"repro/internal/sim"
	"repro/internal/xen"
)

// DVFS island names and their synthetic entity IDs. An operating point is
// a property of a whole island, not of any guest, so each DVFS actuator is
// addressed through one island-wide entity well clear of the domain-ID
// space guests occupy.
const (
	X86DVFSIsland = "x86-dvfs"
	IXPDVFSIsland = "ixp-dvfs"

	EnergyEntityX86 = 1000
	EnergyEntityIXP = 1001
)

// meterPeriod is the energy meter's integration window.
const meterPeriod = 100 * sim.Millisecond

// EnergyConfig arms the energy subsystem: per-island DVFS state machines,
// the always-on energy meter, and the configured governor.
type EnergyConfig struct {
	// Governor selects the policy: energy.ModeOff (default) leaves both
	// islands at their top operating points, energy.ModeOndemand runs one
	// latency-blind utilization governor per island (the uncoordinated
	// ablation), energy.ModeCoordinated builds the QoS-constrained
	// cross-island governor (the application layer drives its Step with a
	// windowed p95).
	Governor string

	// QoSTargetP95 is the coordinated governor's end-to-end latency SLO
	// (default 2s).
	QoSTargetP95 sim.Time

	// Period is the governor control window (default 500ms): the
	// ondemand governors' re-evaluation tick and the coordinated
	// governor's p95 window.
	Period sim.Time

	// X86Table and IXPTable override the default operating-point tables.
	// The top point of each table must match the island's hardware
	// maximum (the state the island boots in).
	X86Table []energy.OperatingPoint
	IXPTable []energy.OperatingPoint

	// CapWatts, when positive, is a platform power cap the coordinated
	// governor holds against the metered watts before it weighs QoS. It
	// requires Governor energy.ModeCoordinated.
	CapWatts float64
}

func (c *EnergyConfig) applyDefaults() {
	if c.Governor == "" {
		c.Governor = energy.ModeOff
	}
	if c.QoSTargetP95 == 0 {
		c.QoSTargetP95 = 2 * sim.Second
	}
	if c.Period == 0 {
		c.Period = 500 * sim.Millisecond
	}
	if c.X86Table == nil {
		c.X86Table = energy.DefaultX86Table()
	}
	if c.IXPTable == nil {
		c.IXPTable = energy.DefaultIXPTable()
	}
}

// x86UtilFn returns a delta-busy utilization sensor over the window since
// its previous call. Each consumer needs its own instance: the window
// state is per-closure.
func x86UtilFn(s *sim.Simulator, hv *xen.Hypervisor) func() float64 {
	var lastAt, lastBusy sim.Time
	return func() float64 {
		now := s.Now()
		var busy sim.Time
		for _, d := range hv.Domains() {
			hv.TotalUtilization(0, d) // fold in-progress runs into the meter
			busy += d.Meter().Busy()
		}
		window := now - lastAt
		if window <= 0 {
			return 0
		}
		delta := busy - lastBusy
		lastAt, lastBusy = now, busy
		util := float64(delta) / float64(window) / float64(len(hv.PCPUs()))
		if util > 1 {
			util = 1
		}
		return util
	}
}

// ixpUtilFn returns a microengine-load proxy over the window since its
// previous call: per-packet microengine work (at the current pool gating)
// for the packets that crossed the island, divided by the thread-time
// available. Like x86UtilFn, each consumer needs its own instance.
func ixpUtilFn(s *sim.Simulator, x *ixp.IXP) func() float64 {
	var lastAt sim.Time
	var lastPkts uint64
	return func() float64 {
		now := s.Now()
		pkts := x.RxSeen() + x.TxSeen()
		window := now - lastAt
		dp := pkts - lastPkts
		lastAt, lastPkts = now, pkts
		threads := x.ThreadsAllocated()
		if window <= 0 || threads == 0 {
			return 0
		}
		cfg := x.Config()
		per := cfg.ClassifyCost + cfg.DequeueCost
		work := sim.Time(dp) * per * sim.Time(ixp.NumMEPools) / sim.Time(x.ActivePools())
		util := float64(work) / float64(window) / float64(threads)
		if util > 1 {
			util = 1
		}
		return util
	}
}

// enableEnergy wires the energy subsystem: DVFS state machines over the
// island actuation sites, their coordination-plane agents and entities,
// the energy meter, and the configured governor. Runs without an
// EnergyConfig are bit-for-bit identical to the pre-energy platform —
// nothing here is constructed.
func (p *Platform) enableEnergy(cfg EnergyConfig) {
	cfg.applyDefaults()
	p.EnergyCfg = &cfg
	s := p.Sim

	// Commit each table's top point as the island's boot state: override
	// tables may top out below the hardware maximum (capping the island's
	// speed for the whole run), and the machines assume they start at
	// their top index.
	if top := cfg.X86Table[len(cfg.X86Table)-1].Level; top != p.Ctl.FrequencyMHz() {
		if err := p.Ctl.SetFrequencyMHz(top); err != nil {
			panic(fmt.Sprintf("platform: x86 energy table top %d MHz: %v", top, err))
		}
	}
	if top := cfg.IXPTable[len(cfg.IXPTable)-1].Level; top != p.IXP.ActivePools() {
		if err := p.IXP.SetActivePools(top); err != nil {
			panic(fmt.Sprintf("platform: IXP energy table top %d pools: %v", top, err))
		}
	}

	x86m, err := energy.NewMachine(X86Island, s, cfg.X86Table, len(cfg.X86Table)-1,
		func(pt energy.OperatingPoint) error { return p.Ctl.SetFrequencyMHz(pt.Level) })
	if err != nil {
		panic(fmt.Sprintf("platform: x86 energy table: %v", err))
	}
	ixpm, err := energy.NewMachine(IXPIsland, s, cfg.IXPTable, len(cfg.IXPTable)-1,
		func(pt energy.OperatingPoint) error { return p.IXP.SetActivePools(pt.Level) })
	if err != nil {
		panic(fmt.Sprintf("platform: IXP energy table: %v", err))
	}
	p.X86DVFS, p.IXPDVFS = x86m, ixpm

	// Both DVFS agents are management-interface endpoints co-located with
	// the controller in Dom0: the Tune path still crosses the controller,
	// so routing counters, epochs, and flight sends all see DVFS traffic.
	route := p.Controller.Route
	registerIsland := p.Controller.RegisterIsland
	registerEntity := p.Controller.RegisterEntity
	if p.Group != nil {
		route = p.Group.Route
		registerIsland = p.Group.RegisterIsland
		registerEntity = p.Group.RegisterEntity
	}
	x86Agent := core.NewAgent(X86DVFSIsland, nil, route, core.NewDVFSActuator(x86m))
	x86Agent.SetFlightRecorder(s, p.cfg.Flight)
	ixpAgent := core.NewAgent(IXPDVFSIsland, nil, route, core.NewDVFSActuator(ixpm))
	ixpAgent.SetFlightRecorder(s, p.cfg.Flight)
	for _, reg := range []struct {
		island core.IslandHandle
		entity core.Entity
	}{
		{core.IslandHandle{Name: X86DVFSIsland, Local: x86Agent.Deliver},
			core.Entity{ID: EnergyEntityX86, Name: X86DVFSIsland, Home: X86DVFSIsland}},
		{core.IslandHandle{Name: IXPDVFSIsland, Local: ixpAgent.Deliver},
			core.Entity{ID: EnergyEntityIXP, Name: IXPDVFSIsland, Home: IXPDVFSIsland}},
	} {
		if err := registerIsland(reg.island); err != nil {
			panic(fmt.Sprintf("platform: registering %s island: %v", reg.island.Name, err))
		}
		if err := registerEntity(reg.entity); err != nil {
			panic(fmt.Sprintf("platform: registering %s entity: %v", reg.entity.Name, err))
		}
	}

	// The meter integrates each island's modeled power over the committed
	// operating points: the x86 dynamic term follows delta-busy
	// utilization, the IXP term follows the thread allocation (per-thread
	// power dominates a network processor's dynamic draw).
	meterUtil := x86UtilFn(s, p.HV)
	p.EnergyMeter = energy.NewMeter(s, meterPeriod, []energy.IslandSource{
		{Name: X86Island, Watts: func() float64 { return x86m.Current().Watts(meterUtil()) }},
		{Name: IXPIsland, Watts: func() float64 {
			return ixpm.Current().StaticW + energy.IXPThreadWatts(p.IXP.ThreadsAllocated())
		}},
	})

	switch cfg.Governor {
	case energy.ModeOff:
		// Both islands stay at their top points.
	case energy.ModeOndemand:
		energy.NewOndemand(s, x86m, cfg.Period, x86UtilFn(s, p.HV))
		energy.NewOndemand(s, ixpm, cfg.Period, ixpUtilFn(s, p.IXP))
	case energy.ModeCoordinated:
		p.EnergyGov = energy.NewCoordinated(s, energy.CoordinatedConfig{
			Target:     cfg.QoSTargetP95,
			X86:        x86m,
			IXP:        ixpm,
			IXPUtil:    ixpUtilFn(s, p.IXP),
			CapWatts:   cfg.CapWatts,
			X86Watts:   func() float64 { return p.EnergyMeter.Watts(X86Island) },
			IXPWatts:   func() float64 { return p.EnergyMeter.Watts(IXPIsland) },
			TuneX86:    func(delta int) { p.X86Agent.SendTune(X86DVFSIsland, EnergyEntityX86, delta) },
			TuneIXP:    func(delta int) { p.X86Agent.SendTune(IXPDVFSIsland, EnergyEntityIXP, delta) },
			TriggerX86: func() { p.X86Agent.SendTrigger(X86DVFSIsland, EnergyEntityX86) },
			Recorder:   p.cfg.Flight,
		})
	default:
		panic(fmt.Sprintf("platform: unknown energy governor %q", cfg.Governor))
	}
	if p.cfg.Flight != nil && cfg.Governor != energy.ModeOff {
		target := int64(0)
		if cfg.Governor == energy.ModeCoordinated {
			target = int64(cfg.QoSTargetP95)
		}
		p.cfg.Flight.Record(flight.Event{
			T: s.Now(), Cat: flight.CatEnergy, Code: flight.EnergyGovernor,
			Label: cfg.Governor, Entity: -1, Arg: target,
		})
	}
}
