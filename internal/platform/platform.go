// Package platform assembles the paper's prototype: a two-island
// heterogeneous system joining an x86 host (Xen hypervisor, credit
// scheduler, Dom0 + guest VMs) and an IXP2850 network processor over PCIe,
// with the coordination layer registered between them.
//
// Figure 3 of the paper is the wiring diagram this package implements:
// external traffic enters the IXP, is classified into per-VM flow queues,
// crosses PCIe into the host messaging driver, traverses the Dom0 bridge,
// and reaches guest VMs; coordination messages travel the PCI
// configuration-space mailbox between the IXP's XScale agent and the
// global controller in Dom0.
package platform

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/flight"
	"repro/internal/ixp"
	"repro/internal/netsim"
	"repro/internal/overload"
	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/xen"
)

// Island names used throughout the prototype.
const (
	X86Island = "x86"
	IXPIsland = "ixp"
)

// dom0Weight is Dom0's credit weight.
const dom0Weight = 256

// degradeHold is how long the controller waits after the IXP lease dies
// before reverting guest weights to their registration baselines. A
// rejoin inside the window cancels the revert.
const degradeHold = 500 * sim.Millisecond

// Config parameterizes the testbed. Zero values take prototype defaults.
type Config struct {
	Seed         int64 // simulation seed (default 1)
	HostNet      netsim.Config
	CoordLatency sim.Time // one-way coordination mailbox latency (default 150us)

	// TuneRateLimit, when positive, rate-limits outbound coordination
	// messages per (kind, entity) on the IXP agent.
	TuneRateLimit sim.Time

	// MinGuestWeight and MaxGuestWeight clamp Tune-driven weight changes
	// (defaults 64 and 1024).
	MinGuestWeight, MaxGuestWeight int

	// Flight, when non-nil, taps every coordination-plane decision —
	// sends, actuations, weight changes, boosts, IXP adjustments, breaker
	// transitions, lease events — into the flight recorder (which may also
	// be a flight.NewVerifier replaying a recorded log). Recording is
	// purely observational and never changes simulated metrics.
	Flight *flight.Recorder

	// CoordFaults arms the full deterministic fault-injection harness on
	// the coordination mailbox: loss, bursts, duplication, reordering,
	// latency spikes, timed partitions, and island crash windows (which
	// the platform schedules against the named island's agent).
	CoordFaults *pcie.FaultPlan

	// Reliable decorates both mailbox directions with ReliableEndpoints
	// (sequence numbers, ack/retry with capped exponential backoff,
	// receiver-side dedup and reordering; see core.ClassFor for the
	// per-kind delivery classes).
	Reliable bool

	// Breaker, when non-nil, arms a circuit breaker
	// on each mailbox endpoint's send path: retry exhaustion opens the
	// breaker and further coordination sends fail fast into the
	// graceful-degradation machinery instead of growing retransmit state.
	// Each endpoint derives its own probe-jitter seed from Breaker.Seed.
	// It requires Reliable: the breaker guards the reliable endpoints.
	Breaker *overload.BreakerConfig

	// Failover, when non-nil, replicates the controller: the group
	// checkpoints coordination state on a sim-time cadence, standbys follow
	// a live actuation tap, and a deterministic lease election promotes the
	// lowest-id live standby within a bounded number of heartbeat intervals
	// of primary death. The group is also armed (with defaults) whenever
	// CoordFaults schedules controller crash or partition windows.
	Failover *core.FailoverConfig

	// OverloadControl, when non-nil, arms the controller's overload
	// translation: every routed Trigger additionally emits a weight-boost
	// Tune to the overloaded island and a shed-rate adjustment to the
	// configured upstream island (the NIC's early-admission gate).
	OverloadControl *core.OverloadControlConfig

	// TriggerRefill and TriggerBurst, when set (burst > 1), put a
	// per-(kind, entity) token bucket on the x86 agent's outbound
	// coordination messages so overload Triggers are damped but not
	// starved.
	TriggerRefill sim.Time
	TriggerBurst  int

	// HeartbeatInterval, when positive, makes the IXP agent emit liveness
	// beacons and starts the controller's lease watchdog plus the agent's
	// uplink-health monitor at that period.
	HeartbeatInterval sim.Time

	// Energy, when non-nil, arms the energy subsystem: per-island DVFS
	// state machines registered as coordination islands, the integrating
	// energy meter, and the configured governor. Nil leaves the platform
	// bit-for-bit identical to the pre-energy behavior (both islands
	// pinned at their top operating points, no metering).
	Energy *EnergyConfig
}

func (c *Config) applyDefaults() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.CoordLatency == 0 {
		c.CoordLatency = 150 * sim.Microsecond
	}
	if c.MinGuestWeight == 0 {
		c.MinGuestWeight = 64
	}
	if c.MaxGuestWeight == 0 {
		c.MaxGuestWeight = 1024
	}
}

// validate rejects settings that contradict each other instead of
// silently ignoring one of them.
func (c *Config) validate() error {
	if c.Breaker != nil && !c.Reliable {
		return fmt.Errorf("Breaker set without Reliable; the breaker guards the reliable endpoints' send path")
	}
	if c.MinGuestWeight < 0 {
		return fmt.Errorf("MinGuestWeight %d is negative", c.MinGuestWeight)
	}
	if c.MinGuestWeight > c.MaxGuestWeight {
		return fmt.Errorf("MinGuestWeight %d exceeds MaxGuestWeight %d", c.MinGuestWeight, c.MaxGuestWeight)
	}
	if e := c.Energy; e != nil {
		if e.CapWatts < 0 {
			return fmt.Errorf("Energy.CapWatts %v is negative", e.CapWatts)
		}
		if e.CapWatts > 0 && e.Governor != energy.ModeCoordinated {
			return fmt.Errorf("Energy.CapWatts set with governor %q; only the %q governor holds a cap", e.Governor, energy.ModeCoordinated)
		}
	}
	return nil
}

// Robustness aggregates the coordination plane's reliability counters from
// every layer — the observability surface for chaos experiments.
type Robustness struct {
	// Reliability-layer protocol stats per mailbox endpoint (zero unless
	// Config.Reliable).
	Uplink   core.ReliableStats // IXP-side endpoint (device -> host data)
	Downlink core.ReliableStats // host-side endpoint (host -> device data)

	// Fault-injection totals across mailbox channels.
	Faults         pcie.FaultStats
	MailboxDropped uint64 // messages consumed by injected loss

	// CorruptDrops counts frames discarded on checksum mismatch across
	// every verifying layer (both mailbox transports plus the reliable
	// endpoints' own defense). CorruptArrived counts corrupted frames the
	// mailbox actually delivered (a frame still in flight at run end was
	// injected but never arrived). The two reconcile exactly: every
	// corrupted frame that arrives is detected, counted, and dropped —
	// never actuated.
	CorruptDrops   uint64
	CorruptArrived uint64

	// Controller-side watchdog and routing counters.
	Heartbeats     uint64
	LeaseExpiries  uint64
	Rejoins        uint64
	StrayAcks      uint64
	UnknownTarget  uint64 // unroutable: island never registered
	UnknownEntity  uint64 // unroutable: entity never registered
	Quarantined    uint64 // unroutable: lease-expired island
	BaselineRevert uint64 // actuator reverts to registration weights

	// IXP-agent degradation counters.
	Degradations       uint64
	Recoveries         uint64
	SuppressedDegraded uint64
	SuppressedCrashed  uint64
	CrashDrops         uint64

	// Circuit-breaker stats per mailbox endpoint (zero unless
	// Config.Breaker armed them).
	UplinkBreaker   overload.BreakerStats
	DownlinkBreaker overload.BreakerStats
	BreakerRejected uint64 // sends refused while a breaker was open (both endpoints)

	// Overload-control plane counters (zero unless Config.OverloadControl).
	ShedTunes  uint64 // upstream shed adjustments the controller issued
	BoostTunes uint64 // weight boosts the controller issued for triggers

	// FlapSuppressed counts lease rejoins absorbed by the watchdog's
	// hysteresis window (expire/rejoin churn not counted as real cycles).
	FlapSuppressed uint64

	// Failover holds the controller group's availability counters (zero
	// unless Config.Failover or controller fault windows armed the group).
	Failover core.FailoverStats
}

// Platform is the assembled testbed.
type Platform struct {
	Sim  *sim.Simulator
	HV   *xen.Hypervisor
	Dom0 *xen.Domain
	Ctl  *xen.Ctl
	IXP  *ixp.IXP
	Host *netsim.HostStack

	Mailbox  *pcie.Mailbox
	Injector *pcie.Injector // nil when no fault plan is armed
	// Controller is the live primary's controller; after a failover it is
	// repointed at the promoted replica's controller.
	Controller *core.Controller
	// Group is the controller replica group (nil unless Config.Failover or
	// controller fault windows armed it).
	Group    *core.ControllerGroup
	X86Agent *core.Agent
	IXPAgent *core.Agent
	X86Act   *core.X86Actuator
	IXPAct   *core.IXPActuator

	// Energy subsystem handles (nil unless Config.Energy): the per-island
	// DVFS state machines, the integrating meter, and — in coordinated
	// mode — the QoS-constrained governor awaiting its p95 sensor.
	X86DVFS     *energy.Machine
	IXPDVFS     *energy.Machine
	EnergyMeter *energy.Meter
	EnergyGov   *energy.Coordinated
	// EnergyCfg is the applied (defaulted) energy configuration.
	EnergyCfg *EnergyConfig

	// UplinkEP/DownlinkEP are the reliable mailbox endpoints (nil unless
	// Config.Reliable). UplinkEP is the IXP side, DownlinkEP the host side.
	UplinkEP   *core.ReliableEndpoint
	DownlinkEP *core.ReliableEndpoint

	// rawUp/rawDown are the wire-level mailbox transports both planes send
	// through; they stamp and verify the frame checksum, so their corrupt
	// counters cover robust and non-robust runs alike.
	rawUp, rawDown *core.MailboxTransport

	cfg    Config
	guests []*xen.Domain
}

// New assembles the two-island prototype and starts the hypervisor.
func New(cfg Config) *Platform {
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		panic(fmt.Sprintf("platform: invalid config: %v", err))
	}
	s := sim.New(cfg.Seed)

	hv := xen.New(s, xen.Options{})
	dom0 := hv.CreateDomain("Dom0", dom0Weight)
	ctl := xen.NewCtl(hv)
	ctl.SetFlightRecorder(cfg.Flight)

	// Bulk data path: one DMA channel per direction.
	ixpToHost := pcie.NewChannel(s, "ixp->host", pcie.DefaultConfig())
	hostToIXP := pcie.NewChannel(s, "host->ixp", pcie.DefaultConfig())

	host := netsim.NewHostStack(s, dom0, hostToIXP, cfg.HostNet)
	x := ixp.New(s, ixp.Config{}, ixpToHost, host.DeliverFromIXP)
	x.SetFlightRecorder(cfg.Flight)
	host.ConnectIXPTransmit(x.TransmitFromHost)
	x.ConnectHostGate(host.RingFull)

	// Coordination plane: mailbox in PCI config space, controller in Dom0.
	mb := pcie.NewMailbox(s, cfg.CoordLatency)
	plan := cfg.CoordFaults
	var inj *pcie.Injector
	if plan != nil {
		if err := plan.Validate(); err != nil {
			panic(fmt.Sprintf("platform: invalid fault plan: %v", err))
		}
		if !plan.Empty() {
			inj = pcie.NewInjector(*plan)
			mb.SetFaults(inj)
		}
	}
	ctrl := core.NewController()
	ctrl.SetFlightRecorder(s, cfg.Flight)

	// Controller replication: the group wraps routing and island/entity
	// registration so a promoted standby can rebuild the same wiring. It is
	// only built when replication or controller fault windows are asked
	// for — the plain single-controller path is untouched otherwise.
	var group *core.ControllerGroup
	if cfg.Failover != nil || (plan != nil && len(plan.ControllerCrashes)+len(plan.ControllerPartitions) > 0) {
		fcfg := core.FailoverConfig{}
		if cfg.Failover != nil {
			fcfg = *cfg.Failover
		}
		group = core.NewControllerGroup(s, ctrl, fcfg)
		group.SetFlightRecorder(cfg.Flight)
	}
	route := ctrl.Route
	registerIsland := ctrl.RegisterIsland
	if group != nil {
		route = group.Route
		registerIsland = group.RegisterIsland
	}

	x86Act := core.NewX86Actuator(ctl)
	x86Act.MinWeight = cfg.MinGuestWeight
	x86Act.MaxWeight = cfg.MaxGuestWeight
	x86Agent := core.NewAgent(X86Island, nil, route, x86Act)
	x86Agent.SetFlightRecorder(s, cfg.Flight)
	if err := registerIsland(core.IslandHandle{Name: X86Island, Local: x86Agent.Deliver}); err != nil {
		panic(fmt.Sprintf("platform: registering x86 island: %v", err))
	}

	rawUp := core.NewDeviceUplink(mb)
	rawDown := core.NewHostDownlink(mb)
	if cfg.TriggerBurst > 1 && cfg.TriggerRefill > 0 {
		x86Agent.SetLimiter(core.NewTokenBucketRateLimiter(s, cfg.TriggerRefill, cfg.TriggerBurst))
	}
	if cfg.OverloadControl != nil {
		oc := *cfg.OverloadControl
		if oc.Upstream == "" {
			oc.Upstream = IXPIsland
		}
		if group != nil {
			group.EnableOverloadControl(oc)
		} else {
			ctrl.EnableOverloadControl(oc)
		}
	}

	var ixpOpts []core.AgentOption
	if cfg.TuneRateLimit > 0 {
		ixpOpts = append(ixpOpts, core.WithRateLimit(s, cfg.TuneRateLimit))
	}

	var (
		ixpUplink   core.Transport = rawUp
		ixpDownlink core.Transport = rawDown
		epDev       *core.ReliableEndpoint
		epHost      *core.ReliableEndpoint
	)
	if cfg.Reliable {
		// Each endpoint sends on its raw direction and consumes the
		// reverse one; acks ride the reverse direction. With a breaker
		// template configured, each endpoint gets its own copy with a
		// derived probe-jitter seed so their probes do not synchronize.
		var upCfg, downCfg core.ReliableConfig
		if cfg.Breaker != nil {
			upB, downB := *cfg.Breaker, *cfg.Breaker
			upB.Seed = cfg.Breaker.Seed*2 + 1
			downB.Seed = cfg.Breaker.Seed*2 + 2
			upCfg.Breaker, downCfg.Breaker = &upB, &downB
		}
		epDev = core.NewReliableEndpoint(s, "ixp-uplink", rawUp, rawDown, upCfg)
		epHost = core.NewReliableEndpoint(s, "host-downlink", rawDown, rawUp, downCfg)
		epHost.SetReceiver(route)
		ixpUplink, ixpDownlink = epDev, epHost
	} else {
		rawUp.SetReceiver(route)
	}
	ixpAct := core.NewIXPActuator(s, x)
	ixpAgent := core.NewAgent(IXPIsland, ixpUplink, nil, ixpAct, ixpOpts...)
	ixpAgent.SetFlightRecorder(s, cfg.Flight)
	if cfg.Flight != nil {
		if b := epDev.Breaker(); b != nil {
			b.SetFlightRecorder(cfg.Flight, "ixp-uplink")
		}
		if b := epHost.Breaker(); b != nil {
			b.SetFlightRecorder(cfg.Flight, "host-downlink")
		}
	}
	if cfg.Reliable {
		epDev.SetReceiver(ixpAgent.Deliver)
	} else {
		rawDown.SetReceiver(ixpAgent.Deliver)
	}
	if err := registerIsland(core.IslandHandle{Name: IXPIsland, Downlink: ixpDownlink}); err != nil {
		panic(fmt.Sprintf("platform: registering IXP island: %v", err))
	}

	p := &Platform{
		Sim:        s,
		HV:         hv,
		Dom0:       dom0,
		Ctl:        ctl,
		IXP:        x,
		Host:       host,
		Mailbox:    mb,
		Injector:   inj,
		Controller: ctrl,
		Group:      group,
		X86Agent:   x86Agent,
		IXPAgent:   ixpAgent,
		X86Act:     x86Act,
		IXPAct:     ixpAct,
		UplinkEP:   epDev,
		DownlinkEP: epHost,
		rawUp:      rawUp,
		rawDown:    rawDown,
		cfg:        cfg,
	}

	if group != nil {
		// Promotions repoint the platform's controller handle; anti-entropy
		// reconciles against each agent's authoritative actuation epoch,
		// and checkpoints capture the actuation baselines plus (when the
		// reliable layer is armed) the endpoints' sequence cursors.
		group.OnPromote(func(c *core.Controller) { p.Controller = c })
		group.SetReconciler(X86Island, x86Agent.ActuationEpoch)
		group.SetReconciler(IXPIsland, ixpAgent.ActuationEpoch)
		providers := core.ReplicaProviders{
			Baselines: x86Act.Baselines,
			RestoreBaselines: func(bs []core.BaselineSnapshot) {
				for _, b := range bs {
					x86Act.SetBaseline(b.Entity, b.Weight)
				}
			},
		}
		if cfg.Reliable {
			providers.Endpoints = func() []core.EndpointSeqState {
				// Sorted by endpoint name: "host-downlink" < "ixp-uplink".
				return []core.EndpointSeqState{epHost.SeqState(), epDev.SeqState()}
			}
			providers.FlushStale = epHost.FlushStale
		}
		group.SetProviders(providers)
	}

	if cfg.Energy != nil {
		p.enableEnergy(*cfg.Energy)
	}
	if cfg.HeartbeatInterval > 0 {
		p.enableWatchdog()
	}
	p.scheduleCrashes(plan)
	if group != nil {
		group.Start()
	}

	hv.Start()
	return p
}

// enableWatchdog wires the liveness machinery: IXP heartbeats, the
// controller's lease watchdog (whose OnDead arms the baseline revert after
// the hold-down), and both agents' uplink-health monitors.
func (p *Platform) enableWatchdog() {
	cfg := p.cfg
	p.IXPAgent.EnableHeartbeat(p.Sim, cfg.HeartbeatInterval)

	var revert *sim.Event
	wcfg := core.WatchdogConfig{
		CheckPeriod: cfg.HeartbeatInterval,
		OnDead: func(island string) {
			if island != IXPIsland {
				return
			}
			if revert != nil {
				revert.Cancel()
			}
			revert = p.Sim.After(degradeHold, func() {
				revert = nil
				p.X86Act.RevertToBaseline()
			})
		},
		OnRejoin: func(island string) {
			if island != IXPIsland || revert == nil {
				return
			}
			revert.Cancel()
			revert = nil
		},
	}
	if p.Group != nil {
		// The group stores the config so every promoted primary restarts
		// the watchdog with the same thresholds and revert hooks.
		p.Group.EnableWatchdog(wcfg)
	} else {
		p.Controller.EnableWatchdog(p.Sim, wcfg)
	}
	p.IXPAgent.EnableDegradation(p.Sim, core.DegradeConfig{CheckPeriod: cfg.HeartbeatInterval})

	// The x86 agent watches the controller symmetrically: the watchdog
	// sweep pings co-located islands too, so when the coordination plane
	// itself goes silent — a dead controller with no standby left — the
	// host reverts coordination-derived weights to the registration
	// baselines after the same hold-down. A promoted (or restarted)
	// primary resumes pings, the agent recovers, and the tune loop
	// rebuilds actuation from the reconciled state.
	var x86Revert *sim.Event
	p.X86Agent.EnableDegradation(p.Sim, core.DegradeConfig{
		CheckPeriod: cfg.HeartbeatInterval,
		OnDegrade: func() {
			if x86Revert != nil {
				x86Revert.Cancel()
			}
			x86Revert = p.Sim.After(degradeHold, func() {
				x86Revert = nil
				p.X86Act.RevertToBaseline()
			})
		},
		OnRecover: func() {
			if x86Revert != nil {
				x86Revert.Cancel()
				x86Revert = nil
			}
		},
	})
}

// scheduleCrashes arms the fault plan's island crash windows against the
// matching agents: a crashed agent emits nothing (its lease expires) and
// drops everything inbound until the window closes.
func (p *Platform) scheduleCrashes(plan *pcie.FaultPlan) {
	if plan == nil {
		return
	}
	agents := map[string]*core.Agent{X86Island: p.X86Agent, IXPIsland: p.IXPAgent}
	for _, cw := range plan.Crashes {
		a, ok := agents[cw.Island]
		if !ok {
			panic(fmt.Sprintf("platform: crash window names unknown island %q", cw.Island))
		}
		w := cw
		p.Sim.At(w.Start, func() { a.SetCrashed(true) })
		p.Sim.At(w.Start+w.Duration, func() { a.SetCrashed(false) })
	}
	for _, rw := range plan.ControllerCrashes {
		w := rw
		if w.Replica >= p.Group.Replicas() {
			panic(fmt.Sprintf("platform: controller crash window names replica %d of %d", w.Replica, p.Group.Replicas()))
		}
		p.Sim.At(w.Start, func() { p.Group.CrashReplica(w.Replica) })
		p.Sim.At(w.Start+w.Duration, func() { p.Group.RestoreReplica(w.Replica) })
	}
	for _, rw := range plan.ControllerPartitions {
		w := rw
		if w.Replica >= p.Group.Replicas() {
			panic(fmt.Sprintf("platform: controller partition window names replica %d of %d", w.Replica, p.Group.Replicas()))
		}
		p.Sim.At(w.Start, func() { p.Group.IsolateReplica(w.Replica) })
		p.Sim.At(w.Start+w.Duration, func() { p.Group.HealReplica(w.Replica) })
	}
}

// Robustness snapshots the coordination plane's reliability counters.
func (p *Platform) Robustness() Robustness {
	r := Robustness{
		Uplink:         p.UplinkEP.Stats(),
		Downlink:       p.DownlinkEP.Stats(),
		MailboxDropped: p.Mailbox.Dropped(),
		Heartbeats:     p.Controller.Heartbeats(),
		LeaseExpiries:  p.Controller.LeaseExpiries(),
		Rejoins:        p.Controller.Rejoins(),
		StrayAcks:      p.Controller.StrayAcks(),
		UnknownTarget:  p.Controller.UnroutableFor(core.UnrouteUnknownTarget),
		UnknownEntity:  p.Controller.UnroutableFor(core.UnrouteUnknownEntity),
		Quarantined:    p.Controller.UnroutableFor(core.UnrouteQuarantined),
		BaselineRevert: p.X86Act.Reverts(),
	}
	r.CorruptDrops = p.rawUp.CorruptDropped() + p.rawDown.CorruptDropped() +
		r.Uplink.CorruptDrops + r.Downlink.CorruptDrops
	r.CorruptArrived = p.Mailbox.CorruptArrived()
	if p.Injector != nil {
		r.Faults = p.Injector.TotalStats()
	}
	st := p.IXPAgent.Stats()
	r.Degradations = st.Degradations
	r.Recoveries = st.Recoveries
	r.SuppressedDegraded = st.SuppressedDegraded
	r.SuppressedCrashed = st.SuppressedCrashed
	r.CrashDrops = st.CrashDrops
	if b := p.UplinkEP.Breaker(); b != nil {
		r.UplinkBreaker = b.Stats()
	}
	if b := p.DownlinkEP.Breaker(); b != nil {
		r.DownlinkBreaker = b.Stats()
	}
	r.BreakerRejected = r.Uplink.BreakerRejected + r.Downlink.BreakerRejected
	r.ShedTunes = p.Controller.ShedTunesIssued()
	r.BoostTunes = p.Controller.BoostTunesIssued()
	r.FlapSuppressed = p.Controller.FlapSuppressed()
	if p.Group != nil {
		r.Failover = p.Group.Stats()
	}
	return r
}

// registerEntity registers a platform entity with the controller — through
// the replica group when it exists, so promoted controllers re-register the
// same entities.
func (p *Platform) registerEntity(e core.Entity) error {
	if p.Group != nil {
		return p.Group.RegisterEntity(e)
	}
	return p.Controller.RegisterEntity(e)
}

// AddGuest creates a single-VCPU guest VM, registers it as a platform-wide
// entity with the global controller, and provisions its IXP flow queue —
// the registration step of §2.3.
func (p *Platform) AddGuest(name string, weight int) *xen.Domain {
	d := p.HV.CreateDomain(name, weight)
	if err := p.registerEntity(core.Entity{ID: d.ID(), Name: name, Home: X86Island}); err != nil {
		panic(fmt.Sprintf("platform: registering guest %q: %v", name, err))
	}
	p.X86Act.SetBaseline(d.ID(), weight)
	p.IXP.RegisterFlow(d.ID())
	p.guests = append(p.guests, d)
	return d
}

// AddLocalGuest creates a guest VM that does not use the IXP island at all
// (e.g. the disk-playback MPlayer VM of Table 3): it is registered with the
// controller but gets no IXP flow queue.
func (p *Platform) AddLocalGuest(name string, weight int) *xen.Domain {
	d := p.HV.CreateDomain(name, weight)
	if err := p.registerEntity(core.Entity{ID: d.ID(), Name: name, Home: X86Island}); err != nil {
		panic(fmt.Sprintf("platform: registering guest %q: %v", name, err))
	}
	p.X86Act.SetBaseline(d.ID(), weight)
	p.guests = append(p.guests, d)
	return d
}

// Guests returns the guest domains in creation order (excluding Dom0).
func (p *Platform) Guests() []*xen.Domain { return p.guests }

// Config returns the applied (defaulted) configuration.
func (p *Platform) Config() Config { return p.cfg }

// TotalGuestUtilization sums the guests' mean CPU utilization (percent of
// one CPU) since start.
func (p *Platform) TotalGuestUtilization(start sim.Time) float64 {
	return p.HV.TotalUtilization(start, p.guests...)
}

// GuestByName returns the guest domain with the given name.
func (p *Platform) GuestByName(name string) (*xen.Domain, error) {
	for _, d := range p.guests {
		if d.Name() == name {
			return d, nil
		}
	}
	return nil, fmt.Errorf("platform: no guest %q", name)
}
