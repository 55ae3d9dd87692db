package repro

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/flight"
	"repro/internal/ixp"
	"repro/internal/overload"
	"repro/internal/pcie"
	"repro/internal/platform"
	"repro/internal/rubis"
	"repro/internal/xen"
)

// RubisConfig shapes a RUBiS experiment run (Figures 2, 4, 5 and Tables 1,
// 2 of the paper). Zero values take the calibrated defaults.
type RubisConfig struct {
	Seed     int64
	Duration time.Duration // total run (default 130s)
	Warmup   time.Duration // measurement starts here (default 10s)

	Scheme       CoordScheme   // coordination policy variant (coordinated runs)
	CoordLatency time.Duration // one-way coordination-channel latency (default 150us)

	Sessions int    // concurrent client sessions (default 80)
	Mix      string // "bid" (default, read-write) or "browsing" (read-only)

	// Workload, when non-nil, selects what drives the run: the
	// closed-loop client (kind "sessions"), a recorded .wtrace replay
	// (kind "trace"), or a deterministic trace generator. Because the
	// spec travels inside the config, trace-driven runs record/replay
	// through the flight recorder like every other experiment. See
	// docs/scenarios.md.
	Workload *Workload `json:",omitempty"`

	// IntrModeration, when positive, enables the IXP's host-interrupt
	// moderation at that period (packets batch until the interrupt fires).
	IntrModeration time.Duration

	// CoordLossRate injects coordination-message loss on the PCIe mailbox
	// (fault injection; 0 = lossless). Shorthand for a Faults plan with
	// only LossRate set; setting both is an error.
	CoordLossRate float64

	// Faults arms the full deterministic fault-injection harness on the
	// coordination mailbox (loss, bursts, duplication, reordering, latency
	// spikes, partitions, island crash windows).
	Faults *FaultPlan

	// Robust enables the reliable coordination plane: ack/retry endpoints
	// on both mailbox directions, island heartbeats with the controller's
	// lease watchdog, and graceful degradation of the IXP policies when
	// the uplink dies (actuator weights revert to baselines after a
	// hold-down).
	Robust bool

	// Heartbeat overrides the heartbeat/watchdog period used when Robust
	// is set (default 250ms).
	Heartbeat time.Duration

	// Failover, when non-nil, replicates the global controller: state is
	// checkpointed on a sim-time cadence, standbys follow a live actuation
	// tap, and a deterministic election promotes the lowest-id live standby
	// within a bounded number of heartbeat intervals of primary death.
	// Setting it implies Robust. Crash/partition the replicas with
	// FaultPlan.ControllerCrashes / ControllerPartitions.
	Failover *FailoverControl

	// LoadFactor scales the client session population (1.0 = calibrated
	// default). Values above ~2 drive the deployment past saturation —
	// the regime the overload-control plane is for.
	LoadFactor float64

	// RequestTimeout, when positive, makes client sessions abandon pages
	// unanswered by then and move on; the server keeps working on the
	// abandoned request. This is the wasted work that collapses goodput
	// under uncontrolled overload (0 = sessions wait forever, the
	// calibrated-baseline behaviour).
	RequestTimeout time.Duration

	// Overload, when non-nil, arms the overload-control plane: bounded
	// per-tier admission queues with queueing deadlines and shed policies,
	// and (when Coordinated) the cross-island loop that sheds traffic at
	// the NIC before it crosses PCIe. See docs/overload.md.
	Overload *OverloadControl

	// Energy, when non-nil, arms the energy subsystem: per-island DVFS
	// state machines, the integrating energy model, and the selected
	// governor. See docs/energy.md.
	Energy *EnergyControl `json:",omitempty"`

	// FlightLog, when set, records the run's coordination-event flight log
	// to this file (see docs/flightrecorder.md); replay it with ReplayRubis
	// or `reproflight replay`. For streaming to an arbitrary writer use
	// RecordRubis instead.
	FlightLog string `json:",omitempty"`
}

// DefaultQoSTargetP95 is the coordinated energy governor's default
// end-to-end p95 latency SLO, calibrated against the testbed's ~1.4s p95
// at the 1x calibrated load.
const DefaultQoSTargetP95 = 2 * time.Second

// Energy governor modes accepted by EnergyControl.Governor.
const (
	EnergyGovOff         = "off"
	EnergyGovOndemand    = "ondemand"
	EnergyGovCoordinated = "coordinated"
)

// EnergyControl is the public face of the energy subsystem. Zero values
// take the defaults noted on each field.
type EnergyControl struct {
	// Governor selects the policy: "off" (default; islands pinned at
	// their top operating points, metering only), "ondemand" (per-island
	// latency-blind utilization governors — the uncoordinated ablation),
	// or "coordinated" (the QoS-constrained cross-island governor).
	Governor string
	// QoSTargetP95 is the coordinated governor's end-to-end p95 latency
	// SLO (default 2s, calibrated against the testbed's ~1.4s p95 at the
	// 1x calibrated load).
	QoSTargetP95 time.Duration
	// Period is the governor control window (default 500ms).
	Period time.Duration
	// X86Points overrides the x86 DVFS table as frequency/voltage pairs,
	// lowest frequency first. A table topping out below the hardware
	// maximum caps the island's speed for the whole run.
	X86Points []DVFSPoint `json:",omitempty"`
	// IXPMaxPools caps the IXP's microengine pools at this count for the
	// whole run (0 = all pools available).
	IXPMaxPools int `json:",omitempty"`
}

// DVFSPoint is one public x86 operating point: a core frequency and its
// supply voltage relative to nominal (1.0 at the hardware maximum).
type DVFSPoint struct {
	MHz     int
	Voltage float64
}

// StateResidency is the time one island spent in one operating point.
type StateResidency struct {
	Island  string
	State   string
	Seconds float64
}

// EnergyReport summarises the energy subsystem for one run. All fields
// are zero (and Governor empty) unless RubisConfig.Energy was set. Joules
// cover the measurement interval; residency covers the whole run.
type EnergyReport struct {
	Governor string

	PlatformJoules   float64
	X86Joules        float64
	IXPJoules        float64
	JoulesPerRequest float64

	QoSTargetP95Ms float64
	QoSWindows     int
	QoSViolations  int

	GovernorActions int
	Transitions     int

	Residency []StateResidency
}

// FailoverControl is the public face of controller replication. Zero
// values take the defaults noted on each field.
type FailoverControl struct {
	// Replicas is the total controller count including the primary
	// (default 1: checkpointing without standbys).
	Replicas int
	// CheckpointInterval is the snapshot cadence (default 1s).
	CheckpointInterval time.Duration
	// Heartbeat is the replica beacon / election tick (default 250ms).
	Heartbeat time.Duration
	// ElectionBeats is how many silent beacon intervals a standby waits
	// before promoting itself (default 3): promotion is bounded by
	// (ElectionBeats+1) heartbeat intervals after primary death.
	ElectionBeats int
}

// FailoverReport surfaces the controller group's availability counters for
// one run (all zero unless RubisConfig.Failover or controller fault
// windows armed the group).
type FailoverReport struct {
	Checkpoints     uint64 // snapshots written by primaries
	CheckpointBytes uint64 // total encoded checkpoint bytes
	Promotions      uint64 // standby -> primary elections
	Demotions       uint64 // superseded primaries demoted on partition heal
	Crashes         uint64 // replica crash windows entered
	Restarts        uint64 // replicas restarted from the durable store
	Partitions      uint64 // replica isolation windows entered
	Heals           uint64 // replica isolation windows closed

	Reconciliations uint64 // anti-entropy island epoch comparisons
	EpochAdoptions  uint64 // islands whose agent outran the recovered view
	StaleDropped    uint64 // in-flight decisions dropped as stale at promotion
	EndpointResyncs uint64 // endpoint cursors that moved past the checkpoint
	EndpointFlushes uint64 // outstanding at-most-once sends flushed at promotion

	NoPrimaryDrops uint64 // coordination messages dropped with no live primary

	Term    uint64 // final election term
	Primary int    // final primary replica ID (-1 if none at run end)
}

// OverloadControl is the public face of the overload-control plane.
// Zero values take calibrated defaults.
type OverloadControl struct {
	// QueueCap bounds each tier's admission queue (default 512; negative
	// means unbounded).
	QueueCap int
	// QueueDeadline expires requests queued longer than this (default 4s;
	// negative disables).
	QueueDeadline time.Duration
	// Policy selects the shed policy: "priority" (default; browse sheds
	// before bid/write), "tail", or "head".
	Policy string
	// Threshold is the smoothed queue delay at which a tier declares
	// overload (default 250ms).
	Threshold time.Duration

	// Coordinated closes the cross-island loop: tier overload raises a
	// Trigger, translated by the controller into a weight boost plus an
	// upstream shed-rate adjustment driving the IXP's early-admission
	// gate.
	Coordinated bool
	// ShedStep and BoostDelta size the translated adjustments (defaults
	// 2 shedder units and +128 weight).
	ShedStep   int
	BoostDelta int
	// TriggerRefill/TriggerBurst damp overload Triggers through a token
	// bucket (defaults 500ms, burst 3).
	TriggerRefill time.Duration
	TriggerBurst  int
	// Breaker arms circuit breakers on the reliable mailbox endpoints
	// (implies the reliable plane).
	Breaker bool
}

// OverloadSummary reports what the overload-control plane did during a
// run. All counters are zero when RubisConfig.Overload was nil.
type OverloadSummary struct {
	QueueShed  uint64 // admission rejections across the three tiers
	Expired    uint64 // queueing-deadline expiries across the tiers
	MaxWaiting int    // largest tier backlog observed

	// Tiers holds the raw per-tier admission counters in web, app, db
	// order; at any instant Offered - Served - Shed - Expired is the
	// tier's in-flight (queued or being served) population.
	Tiers [3]TierAdmission

	IXPShed       uint64 // requests shed at the NIC before crossing PCIe
	ShedResponses uint64 // shed responses the client observed post-warmup
	Abandoned     uint64 // pages abandoned at the client's RequestTimeout

	OverloadEpisodes uint64 // tier detector trips
	TriggersSent     uint64 // overload Triggers emitted by the x86 agent
	ShedTunes        uint64 // upstream shed adjustments issued
	BoostTunes       uint64 // translated weight boosts issued

	BreakerRejected uint64 // sends refused while a mailbox breaker was open
	BreakerOpens    uint64 // breaker open transitions (both endpoints)

	ServedP95Ms float64 // p95 latency of served (non-shed) responses
}

// TierAdmission is one tier's admission-queue counters.
type TierAdmission struct {
	Tier       string // "web", "app", or "db"
	Offered    uint64
	Served     uint64
	Shed       uint64
	Expired    uint64
	MaxWaiting int
}

// RequestStats is one row of Table 1 / Figure 2 / Figure 4.
type RequestStats struct {
	Name     string
	Count    int
	MinMs    float64
	AvgMs    float64
	MaxMs    float64
	StdDevMs float64
	P95Ms    float64
	P99Ms    float64
}

// RubisRun is the outcome of one RUBiS run.
type RubisRun struct {
	Coordinated bool
	Scheme      CoordScheme

	PerType []RequestStats // Table 1 order

	// Table 2 metrics.
	Throughput        float64 // requests/second
	SessionsCompleted int
	AvgSessionSec     float64
	Efficiency        float64 // throughput / (total util / 100)

	// Figure 5 metrics (percent of one CPU).
	WebUtil, AppUtil, DBUtil, Dom0Util, TotalUtil float64

	// Coordination-plane counters (coordinated runs only). TunesSent
	// counts the IXP agent's demand-driven Tunes; TunesSelfSent the x86
	// agent's own overload boosts (routed through the controller back to
	// itself).
	TunesSent     uint64
	TunesSelfSent uint64
	TunesApplied  uint64
	FinalWeights  map[string]int

	// Robustness counters (meaningful when faults are injected or the
	// reliable plane is enabled).
	Robustness RobustnessReport

	// Failover summarises the controller replica group (zero unless
	// RubisConfig.Failover or controller fault windows armed it).
	Failover FailoverReport

	// Overload summarises the overload-control plane (zero unless
	// RubisConfig.Overload was set).
	Overload OverloadSummary

	// Energy summarises the energy subsystem (zero unless
	// RubisConfig.Energy was set).
	Energy EnergyReport
}

// Validate reports the first invalid value in the config. Zero selects
// the default of every duration, count and factor; a negative one, or an
// unknown Mix, is an error rather than a silent default.
func (c RubisConfig) Validate() error {
	if err := c.Workload.Validate(); err != nil {
		return err
	}
	for _, d := range []struct {
		name string
		v    time.Duration
	}{
		{"Duration", c.Duration},
		{"Warmup", c.Warmup},
		{"CoordLatency", c.CoordLatency},
		{"IntrModeration", c.IntrModeration},
		{"Heartbeat", c.Heartbeat},
		{"RequestTimeout", c.RequestTimeout},
	} {
		if d.v < 0 {
			return fmt.Errorf("repro: negative %s %v", d.name, d.v)
		}
	}
	if c.Sessions < 0 {
		return fmt.Errorf("repro: negative Sessions %d", c.Sessions)
	}
	if c.LoadFactor < 0 {
		return fmt.Errorf("repro: negative LoadFactor %g", c.LoadFactor)
	}
	if c.Mix != "" && c.Mix != "bid" && c.Mix != "browsing" {
		return fmt.Errorf("repro: unknown Mix %q (want \"bid\" or \"browsing\")", c.Mix)
	}
	if c.CoordLossRate > 0 && c.Faults != nil {
		return fmt.Errorf("repro: CoordLossRate %g set together with Faults; put the loss in the plan's LossRate", c.CoordLossRate)
	}
	return nil
}

// internal translates the public config; an invalid one is API misuse
// and panics with its Validate error.
func (c RubisConfig) internal(coordinated bool) rubis.ExperimentConfig {
	if err := c.Validate(); err != nil {
		panic("repro: invalid RubisConfig: " + strings.TrimPrefix(err.Error(), "repro: "))
	}
	ec := rubis.ExperimentConfig{
		Coordinated: coordinated,
		Scheme:      c.Scheme.internal(),
	}
	ec.Platform.Seed = c.Seed
	if c.CoordLatency > 0 {
		ec.Platform.CoordLatency = toSim(c.CoordLatency)
	}
	if c.IntrModeration > 0 {
		ec.Platform.HostNet.IntrPeriod = toSim(c.IntrModeration)
	}
	ec.Platform.CoordFaults = c.Faults.internal()
	if c.CoordLossRate > 0 {
		ec.Platform.CoordFaults = &pcie.FaultPlan{Seed: c.Seed, LossRate: c.CoordLossRate}
	}
	if c.Robust || c.Failover != nil {
		ec.Platform.Reliable = true
		hb := 250 * time.Millisecond
		if c.Heartbeat > 0 {
			hb = c.Heartbeat
		}
		ec.Platform.HeartbeatInterval = toSim(hb)
	}
	if c.Failover != nil {
		ec.Platform.Failover = &core.FailoverConfig{
			Replicas:           c.Failover.Replicas,
			CheckpointInterval: toSim(c.Failover.CheckpointInterval),
			HeartbeatInterval:  toSim(c.Failover.Heartbeat),
			ElectionBeats:      c.Failover.ElectionBeats,
		}
	}
	if c.Duration > 0 {
		ec.Duration = toSim(c.Duration)
	}
	if c.Warmup > 0 {
		ec.Warmup = toSim(c.Warmup)
	}
	if c.Workload != nil {
		if c.Workload.closedLoop() {
			if c.Workload.Sessions > 0 {
				c.Sessions = c.Workload.Sessions
			}
			if c.Workload.Mix != "" {
				c.Mix = c.Workload.Mix
			}
		} else {
			// Scenario.Compile pre-flights the same pure derivation, so a
			// failure here is API misuse (bad direct config), like
			// ParsePolicy below.
			d, err := c.Workload.driver(c)
			if err != nil {
				panic("repro: " + err.Error())
			}
			ec.Trace = d
		}
	}
	client := rubis.DefaultExperimentClient()
	if c.Sessions > 0 {
		client.Sessions = c.Sessions
	}
	if c.Mix == "browsing" {
		client.Mix = rubis.BrowsingMix()
		client.Phases = false
	}
	if c.LoadFactor > 0 {
		client.Sessions = int(float64(client.Sessions)*c.LoadFactor + 0.5)
	}
	if c.RequestTimeout > 0 {
		client.Timeout = toSim(c.RequestTimeout)
	}
	ec.Client = client
	if c.Overload != nil {
		ov := c.Overload
		policy, err := overload.ParsePolicy(ov.Policy)
		if err != nil {
			panic("repro: " + err.Error())
		}
		ec.Overload = &rubis.OverloadSetup{
			QueueCap:      ov.QueueCap,
			QueueDeadline: toSim(ov.QueueDeadline),
			Policy:        policy,
			Threshold:     toSim(ov.Threshold),
			Coordinated:   ov.Coordinated,
			ShedStep:      ov.ShedStep,
			BoostDelta:    ov.BoostDelta,
			TriggerRefill: toSim(ov.TriggerRefill),
			TriggerBurst:  ov.TriggerBurst,
			Breaker:       ov.Breaker,
		}
		if ov.QueueDeadline < 0 {
			ec.Overload.QueueDeadline = -1
		}
		if ov.Threshold < 0 {
			ec.Overload.Threshold = -1
		}
	}
	if c.Energy != nil {
		pcfg, err := c.Energy.internal()
		if err != nil {
			panic("repro: " + err.Error())
		}
		ec.Platform.Energy = pcfg
	}
	return ec
}

// internal translates the public energy control into the platform config.
// Scenario.Compile pre-flights the same derivation, so errors escaping
// here (via the panic above) indicate direct-config API misuse.
func (e *EnergyControl) internal() (*platform.EnergyConfig, error) {
	pcfg := &platform.EnergyConfig{}
	switch e.Governor {
	case "", energy.ModeOff, energy.ModeOndemand, energy.ModeCoordinated:
		pcfg.Governor = e.Governor
	default:
		return nil, fmt.Errorf("energy: unknown governor %q (want off, ondemand, or coordinated)", e.Governor)
	}
	if e.QoSTargetP95 < 0 {
		return nil, fmt.Errorf("energy: negative QoS target %v", e.QoSTargetP95)
	}
	if e.Period < 0 {
		return nil, fmt.Errorf("energy: negative period %v", e.Period)
	}
	if e.QoSTargetP95 > 0 {
		pcfg.QoSTargetP95 = toSim(e.QoSTargetP95)
	}
	if e.Period > 0 {
		pcfg.Period = toSim(e.Period)
	}
	if len(e.X86Points) > 0 {
		pts := make([]energy.OperatingPoint, 0, len(e.X86Points))
		for _, dp := range e.X86Points {
			if dp.MHz <= 0 || dp.MHz > xen.MaxFreqMHz {
				return nil, fmt.Errorf("energy: x86 point %d MHz outside (0, %d]", dp.MHz, xen.MaxFreqMHz)
			}
			if dp.Voltage <= 0 || dp.Voltage > 1 {
				return nil, fmt.Errorf("energy: x86 point %d MHz voltage %v outside (0, 1]", dp.MHz, dp.Voltage)
			}
			pts = append(pts, energy.X86Point(dp.MHz, dp.Voltage))
		}
		if err := energy.ValidateTable("x86", pts); err != nil {
			return nil, err
		}
		pcfg.X86Table = pts
	}
	if e.IXPMaxPools != 0 {
		if e.IXPMaxPools < 1 || e.IXPMaxPools > ixp.NumMEPools {
			return nil, fmt.Errorf("energy: IXP pool cap %d outside [1, %d]", e.IXPMaxPools, ixp.NumMEPools)
		}
		var pts []energy.OperatingPoint
		for n := 1; n <= e.IXPMaxPools; n++ {
			pts = append(pts, energy.IXPPoint(n))
		}
		pcfg.IXPTable = pts
	}
	return pcfg, nil
}

// energySummary flattens the internal energy report for the public API.
func energySummary(er rubis.EnergyReport) EnergyReport {
	rep := EnergyReport{
		Governor:         er.Governor,
		PlatformJoules:   er.PlatformJoules,
		X86Joules:        er.X86Joules,
		IXPJoules:        er.IXPJoules,
		JoulesPerRequest: er.JoulesPerRequest,
		QoSTargetP95Ms:   er.QoSTargetP95Ms,
		QoSWindows:       er.QoSWindows,
		QoSViolations:    er.QoSViolations,
		GovernorActions:  er.GovernorActions,
		Transitions:      er.Transitions,
	}
	for _, r := range er.Residency {
		rep.Residency = append(rep.Residency, StateResidency{
			Island:  r.Island,
			State:   r.State,
			Seconds: r.Time.Seconds(),
		})
	}
	return rep
}

// RunRubis executes one RUBiS run, with or without coordination.
func RunRubis(cfg RubisConfig, coordinated bool) *RubisRun {
	if cfg.FlightLog != "" {
		return recordToFile(cfg, coordinated, cfg.FlightLog)
	}
	return runRubis(cfg, coordinated, nil)
}

// runRubis is the shared core of RunRubis, RecordRubis, and ReplayRubis:
// rec, when non-nil, taps every coordination-plane event (it may be a
// recording flight.Recorder or a replaying flight.NewVerifier).
func runRubis(cfg RubisConfig, coordinated bool, rec *flight.Recorder) *RubisRun {
	ec := cfg.internal(coordinated)
	ec.Platform.Flight = rec
	res := rubis.RunExperiment(ec)
	run := &RubisRun{
		Coordinated:       coordinated,
		Scheme:            cfg.Scheme,
		Throughput:        res.Throughput,
		SessionsCompleted: res.Metrics.SessionsCompleted(),
		AvgSessionSec:     res.Metrics.AvgSessionTime(),
		Efficiency:        res.Efficiency,
		WebUtil:           res.WebUtil,
		AppUtil:           res.AppUtil,
		DBUtil:            res.DBUtil,
		Dom0Util:          res.Dom0Util,
		TotalUtil:         res.TotalUtil,
		TunesSent:         res.TunesSent,
		TunesSelfSent:     res.TunesSelfSent,
		TunesApplied:      res.TunesApplied,
		FinalWeights:      res.FinalWeights,
		Robustness:        robustnessReport(res.Robust),
		Failover:          failoverReport(res.Robust.Failover),
		Overload:          overloadSummary(res),
	}
	if res.Energy.Enabled {
		run.Energy = energySummary(res.Energy)
	}
	for _, rt := range rubis.AllRequestTypes() {
		s := res.Metrics.TypeSummary(rt)
		sample := res.Metrics.TypeSample(rt)
		run.PerType = append(run.PerType, RequestStats{
			Name:     rt.String(),
			Count:    s.Count(),
			MinMs:    s.Min(),
			AvgMs:    s.Mean(),
			MaxMs:    s.Max(),
			StdDevMs: s.StdDev(),
			P95Ms:    sample.Percentile(95),
			P99Ms:    sample.Percentile(99),
		})
	}
	return run
}

// failoverReport flattens the controller group's counters for the public
// API.
func failoverReport(s core.FailoverStats) FailoverReport {
	return FailoverReport{
		Checkpoints:     s.Checkpoints,
		CheckpointBytes: s.CheckpointBytes,
		Promotions:      s.Promotions,
		Demotions:       s.Demotions,
		Crashes:         s.Crashes,
		Restarts:        s.Restarts,
		Partitions:      s.Partitions,
		Heals:           s.Heals,
		Reconciliations: s.Reconciliations,
		EpochAdoptions:  s.EpochAdoptions,
		StaleDropped:    s.StaleDropped,
		EndpointResyncs: s.EndpointResyncs,
		EndpointFlushes: s.EndpointFlushes,
		NoPrimaryDrops:  s.NoPrimaryDrops,
		Term:            s.Term,
		Primary:         s.Primary,
	}
}

// overloadSummary flattens the internal overload report for the public API.
func overloadSummary(res *rubis.Result) OverloadSummary {
	ov := res.Overload
	s := OverloadSummary{
		IXPShed:          ov.IXPShed,
		ShedResponses:    ov.ShedResponses,
		Abandoned:        ov.Abandoned,
		OverloadEpisodes: ov.OverloadEpisodes,
		TriggersSent:     ov.TriggersSent,
		ShedTunes:        ov.ShedTunes,
		BoostTunes:       ov.BoostTunes,
		BreakerRejected:  res.Robust.BreakerRejected,
		BreakerOpens:     res.Robust.UplinkBreaker.Opens + res.Robust.DownlinkBreaker.Opens,
		ServedP95Ms:      ov.ServedP95Ms,
	}
	tierNames := [3]string{"web", "app", "db"}
	for i, st := range ov.Tiers {
		s.Tiers[i] = TierAdmission{
			Tier:       tierNames[i],
			Offered:    st.Offered,
			Served:     st.Served,
			Shed:       st.Shed,
			Expired:    st.Expired,
			MaxWaiting: st.MaxWaiting,
		}
		s.QueueShed += st.Shed
		s.Expired += st.Expired
		if st.MaxWaiting > s.MaxWaiting {
			s.MaxWaiting = st.MaxWaiting
		}
	}
	return s
}

// CompareRubis runs the baseline and the coordinated case on identical
// workloads, the comparison every RUBiS table and figure is built from.
func CompareRubis(cfg RubisConfig) (base, coord *RubisRun) {
	return RunRubis(cfg, false), RunRubis(cfg, true)
}

// MeanOverTypes returns the count-weighted mean response time across all
// request types, in milliseconds.
func (r *RubisRun) MeanOverTypes() float64 {
	var sum float64
	var n int
	for _, t := range r.PerType {
		sum += t.AvgMs * float64(t.Count)
		n += t.Count
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MaxOverTypes returns the largest per-type maximum response time (ms).
func (r *RubisRun) MaxOverTypes() float64 {
	max := 0.0
	for _, t := range r.PerType {
		if t.MaxMs > max {
			max = t.MaxMs
		}
	}
	return max
}
