package rubis

import (
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/netsim"
	"repro/internal/overload"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/xen"
)

// Scheme selects the coordination policy variant for RUBiS runs.
type Scheme int

// Coordination policy variants.
const (
	SchemeOutstanding Scheme = iota // backlog-tracking (default)
	SchemeLoadTrack                 // offered-load tracking
	SchemeClass                     // fixed-delta read/write rule
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case SchemeOutstanding:
		return "outstanding"
	case SchemeLoadTrack:
		return "loadtrack"
	case SchemeClass:
		return "class"
	default:
		return "unknown"
	}
}

// OverloadSetup arms the overload-control plane for a run.
type OverloadSetup struct {
	// Queueing knobs, forwarded into ServerConfig.Overload (defaults:
	// cap 512, deadline 4s, priority-aware shedding, threshold 250ms).
	QueueCap      int
	QueueDeadline sim.Time
	Policy        overload.Policy
	Threshold     sim.Time

	// Coordinated closes the cross-island loop: tier overload raises a
	// Trigger, the controller translates it into a weight boost for the
	// tier plus an upstream shed-rate adjustment, and the IXP's
	// early-admission gate sheds per-class traffic before PCIe.
	Coordinated bool
	// ShedStep is the shedder units per upstream adjustment (default 2,
	// each worth the shedder's Step probability).
	ShedStep int
	// BoostDelta is the weight boost accompanying each translated Trigger
	// (default 128).
	BoostDelta int
	// TriggerRefill/TriggerBurst damp overload Triggers through a
	// per-(kind, entity) token bucket (defaults 500ms, burst 3).
	TriggerRefill sim.Time
	TriggerBurst  int
	// Breaker arms circuit breakers on the reliable mailbox endpoints
	// (requires Platform.Reliable).
	Breaker bool
}

func (o *OverloadSetup) applyDefaults() {
	if o.ShedStep == 0 {
		o.ShedStep = 2
	}
	if o.BoostDelta == 0 {
		o.BoostDelta = 128
	}
	if o.TriggerRefill == 0 {
		o.TriggerRefill = 500 * sim.Millisecond
	}
	if o.TriggerBurst == 0 {
		o.TriggerBurst = 3
	}
}

// OverloadReport aggregates the overload-control plane's counters for one
// run — the observability surface the ablation and chaos tests pin.
type OverloadReport struct {
	// Per-tier admission-queue counters (web, app, db order).
	Tiers [NumTiers]overload.QueueStats

	IXPShed       uint64 // requests shed by the NIC before PCIe
	IXPDropped    uint64 // packets silently dropped at full NIC rings/queues
	ServerSheds   uint64 // shed responses the tiers issued
	ShedResponses uint64 // shed responses the client observed post-warmup
	Abandoned     uint64 // pages the client gave up on at its timeout

	OverloadEpisodes uint64 // tier detector trips
	TriggersSent     uint64 // overload Triggers the x86 agent emitted
	ShedTunes        uint64 // upstream shed adjustments issued
	BoostTunes       uint64 // translated weight boosts issued

	ServedP95Ms float64 // p95 served-response latency, milliseconds
}

// EnergyReport aggregates the energy subsystem's measurements. Joules
// cover the measurement interval (warmup excluded, via ledger snapshots at
// the warmup boundary); residency covers the whole run.
type EnergyReport struct {
	Enabled  bool
	Governor string // energy.ModeOff / ModeOndemand / ModeCoordinated

	PlatformJoules float64
	X86Joules      float64
	IXPJoules      float64
	// JoulesPerRequest is platform energy divided by served responses —
	// the ablation's headline efficiency metric.
	JoulesPerRequest float64

	// QoS accounting against the configured p95 target, counted per
	// governor control window for every mode (the equal-QoS comparison
	// needs violation counts for the off and ondemand runs too).
	QoSTargetP95Ms float64
	QoSWindows     int // post-warmup windows that observed responses
	QoSViolations  int // windows whose p95 exceeded the target

	GovernorActions int // coordinated-governor actuations
	Transitions     int // committed DVFS transitions, both islands

	// Residency is the full-run per-operating-point residency of both
	// islands' state machines (x86 points first).
	Residency []energy.StateResidency
}

// TraceDriver replaces the closed-loop client with an open-loop trace
// replay (see TraceClient): every resolved request is injected at its
// trace arrival time regardless of how the platform is keeping up.
type TraceDriver struct {
	// Reqs is the resolved trace (rubis.ResolveTrace), sorted by arrival.
	Reqs []TraceReq
	// Timeout, when positive, discards responses arriving later than this
	// after the send (abandoned work, as in ClientConfig.Timeout).
	Timeout sim.Time
}

// guestWeight is the initial credit weight of each tier VM.
const guestWeight = 256

// ExperimentConfig describes one RUBiS run on the two-island testbed.
type ExperimentConfig struct {
	Platform platform.Config
	Server   ServerConfig
	Client   ClientConfig

	// Trace, when non-nil, drives the run from a workload trace instead
	// of the closed-loop Client; the Client field is then ignored.
	Trace *TraceDriver

	// Overload, when non-nil, bounds the tier admission queues and (when
	// Overload.Coordinated) closes the cross-island shed loop. It is
	// independent of Coordinated/Scheme, which select the paper's
	// weight-tuning policy.
	Overload *OverloadSetup

	// Coordinated enables the paper's coord-ixp-dom0 scheme: the IXP's
	// request classifier drives per-request weight Tunes for the tier VMs.
	Coordinated bool
	// Scheme selects the coordination policy when Coordinated is set:
	// SchemeOutstanding (default) tracks per-tier outstanding demand from
	// both traffic directions; SchemeLoadTrack tracks offered load only;
	// SchemeClass is the simple fixed-delta read/write rule. The latter two
	// exist for the policy ablation.
	Scheme Scheme

	Warmup   sim.Time // measurement starts here (default 10s)
	Duration sim.Time // total run length including warmup (default 70s)
}

// DefaultExperimentClient returns the calibrated client workload used for
// the paper's RUBiS tables and figures: 80 concurrent sessions of the
// read-write (bid) mix with population-level write surges every 8s.
func DefaultExperimentClient() ClientConfig {
	return ClientConfig{
		Sessions:           80,
		RequestsPerSession: 60,
		ThinkTime:          400 * sim.Millisecond,
		Phases:             true,
		PhasePeriod:        8 * sim.Second,
		PhaseWindow:        3 * sim.Second,
		WriteBiasIn:        10,
		WriteBiasOut:       0.05,
		PhaseThinkFactor:   1, // composition surge only, no rate surge
	}
}

func (c *ExperimentConfig) applyDefaults() {
	if c.Client == (ClientConfig{}) {
		c.Client = DefaultExperimentClient()
	}
	if c.Warmup == 0 {
		c.Warmup = 10 * sim.Second
	}
	if c.Duration == 0 {
		c.Duration = 70 * sim.Second
	}
}

// Result carries everything the paper's RUBiS tables and figures report.
type Result struct {
	Metrics *Metrics

	// Per-tier mean CPU utilization over the measurement interval, percent
	// of one CPU (Figure 5), plus Dom0 for completeness.
	WebUtil, AppUtil, DBUtil, Dom0Util float64
	// TotalUtil is the summed tier utilization (the paper's Table 2 basis).
	TotalUtil float64
	// Throughput in requests/second and the derived platform efficiency.
	Throughput float64
	Efficiency float64

	// Coordination-plane counters. TunesSent counts the IXP agent's
	// demand-driven Tunes; TunesSelfSent the x86 agent's own boosts (the
	// overload plane's delay-only pressure valve routes through the
	// controller back to x86).
	TunesSent     uint64
	TunesSelfSent uint64
	TunesApplied  uint64
	// Final weights, to inspect where the policy drove the scheduler.
	FinalWeights map[string]int

	// Robust aggregates the coordination plane's reliability counters
	// (fault injection, ack/retry transport, leases, degradation).
	Robust platform.Robustness

	// Overload aggregates the overload-control plane's counters (queue
	// sheds and expiries, NIC-side early sheds, trigger translation).
	Overload OverloadReport

	// Energy aggregates the energy subsystem's measurements (zero value
	// with Enabled=false unless Platform.Energy armed the subsystem).
	Energy EnergyReport
}

// utilWindow measures a domain's utilization over [from, to) using busy
// snapshots, so pre-warmup activity is excluded.
type utilWindow struct {
	dom  *xen.Domain
	at   sim.Time
	busy sim.Time
}

func (w *utilWindow) snapshot(now sim.Time) {
	w.at = now
	w.busy = w.dom.Meter().Busy()
}

func (w *utilWindow) utilization(now sim.Time) float64 {
	if now <= w.at {
		return 0
	}
	return float64(w.dom.Meter().Busy()-w.busy) / float64(now-w.at) * 100
}

// RunExperiment assembles the testbed, deploys RUBiS, optionally arms the
// coordination policy, runs to completion, and returns the measurements.
func RunExperiment(cfg ExperimentConfig) *Result {
	cfg.applyDefaults()
	var ov *OverloadSetup
	if cfg.Overload != nil {
		o := *cfg.Overload
		o.applyDefaults()
		ov = &o
		cfg.Server.Overload = &OverloadConfig{
			QueueCap:      o.QueueCap,
			QueueDeadline: o.QueueDeadline,
			Policy:        o.Policy,
			Threshold:     o.Threshold,
		}
		if o.Coordinated {
			cfg.Platform.OverloadControl = &core.OverloadControlConfig{
				Upstream:   platform.IXPIsland,
				ShedStep:   o.ShedStep,
				BoostDelta: o.BoostDelta,
			}
			cfg.Platform.TriggerRefill = o.TriggerRefill
			cfg.Platform.TriggerBurst = o.TriggerBurst
		}
		if o.Breaker {
			cfg.Platform.Reliable = true
			seed := cfg.Platform.Seed
			if seed == 0 {
				seed = 1
			}
			cfg.Platform.Breaker = &overload.BreakerConfig{Seed: seed}
		}
	}
	if cfg.Coordinated && cfg.Platform.MinGuestWeight == 0 {
		// In the outstanding-load translation the weight floor is the base
		// allocation; Tunes add transient priority on top of it, so an
		// unloaded tier never drops below its uncoordinated share.
		cfg.Platform.MinGuestWeight = guestWeight
		cfg.Platform.MaxGuestWeight = 2048
	}
	p := platform.New(cfg.Platform)
	web := p.AddGuest("WebServer", guestWeight)
	app := p.AddGuest("AppServer", guestWeight)
	db := p.AddGuest("DBServer", guestWeight)

	cfg.Server.Flight = cfg.Platform.Flight
	srv := NewServer(p.Sim, cfg.Server, web, app, db, p.Host)

	// Both workload drivers expose the same minimal surface; everything
	// below this point is driver-agnostic.
	var client interface {
		Start()
		Metrics() *Metrics
	}
	if cfg.Trace != nil {
		client = NewTraceClient(p.Sim, TraceClientConfig{
			Reqs:    cfg.Trace.Reqs,
			WebVM:   web.ID(),
			Warmup:  cfg.Warmup,
			Timeout: cfg.Trace.Timeout,
		}, p.IXP)
	} else {
		clientCfg := cfg.Client
		clientCfg.WebVM = web.ID()
		clientCfg.Warmup = cfg.Warmup
		client = NewClient(p.Sim, clientCfg, p.IXP)
	}

	if ov != nil && ov.Coordinated {
		// Close the cross-island loop. Host side: a tier tripping its
		// delay detector raises a Trigger (token-bucket damped in the x86
		// agent), which the controller translates into a weight boost for
		// the tier plus an upstream shed-rate adjustment. IXP side: the
		// shed adjustments drive a per-class shedder gating admission
		// before PCIe; its rates decay back toward zero when the overload
		// episode ends.
		seed := cfg.Platform.Seed
		if seed == 0 {
			seed = 1
		}
		shedder := overload.NewShedder(p.Sim, overload.ShedderConfig{Seed: seed + 1000})
		shedder.SetFlightRecorder(cfg.Platform.Flight, "ixp-gate")
		p.IXPAct.SetShedControl(func(_, delta int) error {
			shedder.Adjust(delta)
			return nil
		})
		ovCatalog := DefaultCatalog()
		p.IXP.SetAdmission(func(pkt *netsim.Packet) (*netsim.Packet, bool) {
			req, isReq := pkt.Payload.(*Request)
			if !isReq || pkt.SrcVM != -1 {
				return nil, true // non-request traffic is never gated
			}
			if !shedder.ShouldShed(classFor(ovCatalog[req.Type].Kind)) {
				return nil, true
			}
			req.Shed = true
			return &netsim.Packet{
				ID:      pkt.ID,
				Size:    shedRespBytes,
				SrcVM:   pkt.DstVM,
				DstVM:   -1,
				Class:   pkt.Class,
				Payload: req,
				Created: p.Sim.Now(),
			}, false
		})
		srv.SetOverloadNotify(func(tier Tier, overloaded bool) {
			if overloaded {
				p.X86Agent.SendTrigger(platform.X86Island, srv.TierDomain(tier).ID())
			}
		})
		// Sustained overload must keep pressure on the control loop: the
		// detector only edges once per episode and the shedder's rates
		// decay, so re-evaluate every refill period. Two severity levels:
		// a tier actually shedding or expiring (its bounded queue is
		// insufficient) re-raises the full Trigger — boost plus upstream
		// NIC shedding — while delay-only overload sends a plain boost
		// Tune, which raises the tier's CPU share without discarding
		// traffic the queues can still absorb. The agent's token buckets
		// damp both streams.
		var lastPressure [NumTiers]uint64
		p.Sim.Ticker(ov.TriggerRefill, func() {
			worst, worstDelay := Tier(-1), sim.Time(0)
			for t := TierWeb; t < NumTiers; t++ {
				st := srv.Queue(t).Stats()
				pressure := st.Shed + st.Expired
				if pressure > lastPressure[t] {
					lastPressure[t] = pressure
					p.X86Agent.SendTrigger(platform.X86Island, srv.TierDomain(t).ID())
					continue
				}
				if d := srv.Detector(t); d != nil && d.Overloaded() && d.Smoothed() > worstDelay {
					worst, worstDelay = t, d.Smoothed()
				}
			}
			// Boost only the slowest delay-overloaded tier: boosting every
			// tier at once just starves dom0's packet processing.
			if worst >= 0 {
				p.X86Agent.SendTune(platform.X86Island, srv.TierDomain(worst).ID(), ov.BoostDelta)
			}
		})
	}

	coordinating := false
	if cfg.Coordinated {
		coordinating = true
		tiers := core.TierEntities{Web: web.ID(), App: app.ID(), DB: db.ID()}
		catalog := DefaultCatalog()
		demands := func(pkt *netsim.Packet) (webMs, appMs, dbMs float64, ok bool) {
			req, isReq := pkt.Payload.(*Request)
			if !isReq {
				return 0, 0, 0, false
			}
			prof := catalog[req.Type]
			return prof.Web.Milliseconds(), prof.App.Milliseconds(), prof.DB.Milliseconds(), true
		}
		switch cfg.Scheme {
		case SchemeClass:
			policy := core.NewRequestClassPolicy(p.IXPAgent, platform.X86Island, tiers, 0)
			p.IXP.AddDPI(func(pkt *netsim.Packet) {
				req, ok := pkt.Payload.(*Request)
				if !ok || pkt.SrcVM != -1 {
					return // only classify inbound client requests
				}
				policy.OnRequest(catalog[req.Type].Kind)
			})
		case SchemeLoadTrack:
			// The load-tracking translation decays with a 1s time constant.
			p.X86Act.EnableLoadTracking(p.Sim, sim.Second, 100*sim.Millisecond)
			policy := core.NewLoadTrackPolicy(p.IXPAgent, platform.X86Island, tiers)
			p.IXP.AddDPI(func(pkt *netsim.Packet) {
				if pkt.SrcVM != -1 {
					return
				}
				if w, a, d, ok := demands(pkt); ok {
					policy.OnRequest(w, a, d)
				}
			})
		default: // SchemeOutstanding
			// Slow decay heals any drift of the outstanding-demand estimate
			// (e.g. responses whose requests predate coordination start).
			p.X86Act.EnableLoadTracking(p.Sim, 20*sim.Second, 250*sim.Millisecond)
			policy := core.NewOutstandingLoadPolicy(p.IXPAgent, platform.X86Island, tiers)
			p.IXP.AddDPI(func(pkt *netsim.Packet) {
				if pkt.SrcVM != -1 {
					return
				}
				if w, a, d, ok := demands(pkt); ok {
					policy.OnRequest(w, a, d)
				}
			})
			p.IXP.AddTxDPI(func(pkt *netsim.Packet) {
				if w, a, d, ok := demands(pkt); ok {
					policy.OnResponse(w, a, d)
				}
			})
		}
	}

	// Energy control loop: one experiment-level ticker owns the
	// windowed-p95 drain. It counts QoS windows and violations for every
	// governor mode (the equal-QoS ablation needs violation counts for the
	// off and ondemand runs too) and, in coordinated mode, feeds the
	// governor's Step. The client only records post-warmup responses, so
	// the governor sees no signal — and takes no action — during warmup.
	var qosWindows, qosViolations int
	if p.EnergyMeter != nil {
		ecfg := p.EnergyCfg
		metrics := client.Metrics()
		p.Sim.Ticker(ecfg.Period, func() {
			p95ms, n := metrics.WindowP95()
			p95 := sim.Time(p95ms * float64(sim.Millisecond))
			if n > 0 {
				qosWindows++
				if p95 > ecfg.QoSTargetP95 {
					qosViolations++
				}
			}
			if p.EnergyGov != nil {
				p.EnergyGov.Step(p95, n)
			}
		})
		if p.EnergyGov != nil {
			// The last escalation rung: when both islands already run flat
			// out, boost the credit weight of the tier with the deepest
			// admission queue — the same joint actuator vocabulary the
			// overload plane uses.
			p.EnergyGov.SetBoostBottleneck(func() {
				worst, depth := TierWeb, -1
				for t := TierWeb; t < NumTiers; t++ {
					if d := srv.Queue(t).Waiting(); d > depth {
						worst, depth = t, d
					}
				}
				p.X86Agent.SendTune(platform.X86Island, srv.TierDomain(worst).ID(), 64)
			})
		}
	}

	// Utilization windows snapshot at warmup so Figure 5 reflects steady
	// state only; the energy ledgers snapshot at the same boundary so
	// joules cover the measurement interval.
	windows := []*utilWindow{{dom: web}, {dom: app}, {dom: db}, {dom: p.Dom0}}
	var energyWarm map[string]int64
	p.Sim.At(cfg.Warmup, func() {
		for _, w := range windows {
			p.HV.TotalUtilization(0, w.dom) // folds in-progress run intervals into the meter
			w.snapshot(p.Sim.Now())
		}
		if p.EnergyMeter != nil {
			p.EnergyMeter.Flush() // close the partial accrual window at the boundary
			energyWarm = p.EnergyMeter.Snapshot()
		}
	})

	client.Start()
	p.Sim.RunUntil(cfg.Duration)
	now := p.Sim.Now()
	for _, w := range windows {
		p.HV.TotalUtilization(0, w.dom)
	}

	res := &Result{
		Metrics:      client.Metrics(),
		WebUtil:      windows[0].utilization(now),
		AppUtil:      windows[1].utilization(now),
		DBUtil:       windows[2].utilization(now),
		Dom0Util:     windows[3].utilization(now),
		FinalWeights: map[string]int{},
	}
	res.TotalUtil = res.WebUtil + res.AppUtil + res.DBUtil
	res.Throughput = client.Metrics().Throughput(now)
	res.Efficiency = stats.PlatformEfficiency(res.Throughput, res.TotalUtil)
	if coordinating {
		res.TunesSent = p.IXPAgent.Stats().TunesSent
		res.TunesSelfSent = p.X86Agent.Stats().TunesSent
		res.TunesApplied = p.X86Agent.Stats().TunesApplied
	}
	for _, d := range []*xen.Domain{web, app, db} {
		res.FinalWeights[d.Name()] = d.Weight()
	}
	res.Robust = p.Robustness()

	for t := TierWeb; t < NumTiers; t++ {
		res.Overload.Tiers[t] = srv.Queue(t).Stats()
		if d := srv.Detector(t); d != nil {
			res.Overload.OverloadEpisodes += d.Stats().Episodes
		}
	}
	res.Overload.IXPShed = p.IXP.RxShed()
	res.Overload.IXPDropped = p.IXP.RxDropped()
	res.Overload.ServerSheds = srv.Sheds()
	res.Overload.ShedResponses = client.Metrics().ShedResponses()
	res.Overload.Abandoned = client.Metrics().Abandoned()
	res.Overload.TriggersSent = p.X86Agent.Stats().TriggersSent
	res.Overload.ShedTunes = res.Robust.ShedTunes
	res.Overload.BoostTunes = res.Robust.BoostTunes
	res.Overload.ServedP95Ms = client.Metrics().ServedP95()

	if p.EnergyMeter != nil {
		p.EnergyMeter.Flush()
		end := p.EnergyMeter.Snapshot()
		rep := EnergyReport{
			Enabled:        true,
			Governor:       p.EnergyCfg.Governor,
			QoSTargetP95Ms: p.EnergyCfg.QoSTargetP95.Milliseconds(),
			QoSWindows:     qosWindows,
			QoSViolations:  qosViolations,
			Transitions:    p.X86DVFS.Transitions() + p.IXPDVFS.Transitions(),
			Residency:      append(p.X86DVFS.Residency(), p.IXPDVFS.Residency()...),
		}
		rep.PlatformJoules = energy.Joules(end["platform"] - energyWarm["platform"])
		rep.X86Joules = energy.Joules(end[platform.X86Island] - energyWarm[platform.X86Island])
		rep.IXPJoules = energy.Joules(end[platform.IXPIsland] - energyWarm[platform.IXPIsland])
		if n := client.Metrics().Responses(); n > 0 {
			rep.JoulesPerRequest = rep.PlatformJoules / float64(n)
		}
		if p.EnergyGov != nil {
			rep.GovernorActions = p.EnergyGov.Actions()
		}
		res.Energy = rep
	}
	return res
}
