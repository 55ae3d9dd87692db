package core

import (
	"fmt"

	"repro/internal/flight"
	"repro/internal/sim"
)

// Actuator translates incoming coordination messages into an island's
// native resource-management actions. The x86 island's actuator adjusts
// Xen credit weights and boosts runqueue positions; the IXP island's
// actuator adjusts dequeue-thread allocations.
type Actuator interface {
	// ApplyTune translates a Tune delta for the entity into the island's
	// scheduler terms, returning an error if the entity is unknown or the
	// adjustment is not applicable.
	ApplyTune(entity, delta int) error
	// ApplyTrigger grants the entity resources as soon as possible.
	ApplyTrigger(entity int) error
}

// ShedActuator is optionally implemented by actuators that can adjust an
// island's admission shed rate (KindShed). Actuators without it reject
// shed adjustments as apply errors, so adding the interface never breaks
// existing implementations.
type ShedActuator interface {
	// ApplyShed moves the entity's shed rate by delta units (positive =
	// shed more traffic before it reaches downstream islands).
	ApplyShed(entity, delta int) error
}

// AgentStats counts an agent's coordination traffic.
type AgentStats struct {
	TunesSent        uint64
	TriggersSent     uint64
	ShedsSent        uint64
	TunesApplied     uint64
	TriggersApplied  uint64
	ShedsApplied     uint64
	ApplyErrors      uint64
	RateLimitDropped uint64

	// Robustness counters.
	HeartbeatsSent     uint64
	HeartbeatsSeen     uint64 // controller pings observed on the downlink
	SuppressedDegraded uint64 // outbound messages withheld while degraded
	SuppressedCrashed  uint64 // outbound messages withheld while crashed
	CrashDrops         uint64 // inbound messages dropped while crashed
	Degradations       uint64 // healthy -> degraded transitions
	Recoveries         uint64 // degraded -> healthy transitions
}

// DegradeConfig parameterizes an agent's uplink-health monitor
// (EnableDegradation).
type DegradeConfig struct {
	// CheckPeriod is the monitor interval (default 250ms).
	CheckPeriod sim.Time
	// LeaseTimeout degrades the agent after this much silence from the
	// controller (no pings seen on the downlink; default 4x CheckPeriod).
	LeaseTimeout sim.Time

	// OnDegrade/OnRecover are optional transition hooks (the platform uses
	// them to revert actuators to baseline after a hold-down).
	OnDegrade func()
	OnRecover func()
}

func (c *DegradeConfig) applyDefaults() {
	if c.CheckPeriod == 0 {
		c.CheckPeriod = 250 * sim.Millisecond
	}
	if c.LeaseTimeout == 0 {
		c.LeaseTimeout = 4 * c.CheckPeriod
	}
}

// Agent is one island's coordination endpoint: it emits Tune/Trigger
// requests toward remote islands through its uplink, and applies requests
// arriving from remote islands to its local resource manager through the
// Actuator.
type Agent struct {
	name     string
	uplink   Transport // toward the controller; nil when co-located
	route    func(Message)
	actuator Actuator
	limiter  *RateLimiter
	stats    AgentStats

	flight      *flight.Recorder  // optional flight recorder
	fsim        *sim.Simulator    // timestamp source for flight events
	routeLabels map[string]string // interned "name>target" flight labels

	// actEpoch counts actuation messages (Tune/Trigger/Shed) the agent
	// accepted for its actuator — the island's authoritative progress mark
	// for failover's anti-entropy reconciliation. Messages dropped in a
	// crash window do not advance it, which is exactly how a recovered
	// controller detects decisions the island never saw.
	actEpoch uint64

	// Robustness state.
	crashed   bool // island crash window: nothing in, nothing out
	degraded  bool // uplink believed dead: policies silenced
	dsim      *sim.Simulator
	dcfg      DegradeConfig
	lastHeard sim.Time // last controller ping on the downlink
	health    LinkHealth
}

// AgentOption customizes an Agent.
type AgentOption func(*Agent)

// WithRateLimit drops outbound messages for an entity when they would
// exceed one per minInterval (per entity, per kind). The paper applies
// coordination per request; rate limiting is the practical damper for
// oscillating request streams discussed in §3.1.
func WithRateLimit(s *sim.Simulator, minInterval sim.Time) AgentOption {
	return func(a *Agent) { a.limiter = NewRateLimiter(s, minInterval) }
}

// SetLimiter installs (or replaces) the agent's outbound rate limiter
// after construction; nil removes it.
func (a *Agent) SetLimiter(l *RateLimiter) { a.limiter = l }

// NewAgent creates an island agent. For remote islands, uplink carries
// messages to the controller and its reverse direction must be wired to
// Deliver. For the island co-located with the controller, pass a nil
// uplink and a route function (typically Controller.Route).
func NewAgent(name string, uplink Transport, route func(Message), actuator Actuator, opts ...AgentOption) *Agent {
	if name == "" {
		panic("core: agent with empty name")
	}
	if (uplink == nil) == (route == nil) {
		panic(fmt.Sprintf("core: agent %q must have exactly one of uplink and route", name))
	}
	a := &Agent{name: name, uplink: uplink, route: route, actuator: actuator}
	if h, ok := uplink.(LinkHealth); ok {
		a.health = h
	}
	for _, o := range opts {
		o(a)
	}
	return a
}

// SetFlightRecorder taps every sent and applied coordination message into
// the flight recorder (nil disables; the disabled cost is one branch per
// site).
func (a *Agent) SetFlightRecorder(s *sim.Simulator, r *flight.Recorder) {
	a.fsim, a.flight = s, r
}

// routeLabel interns the "name>target" flight label so steady-state sends
// do not allocate a fresh string per message.
func (a *Agent) routeLabel(target string) string {
	l, ok := a.routeLabels[target]
	if !ok {
		if a.routeLabels == nil {
			a.routeLabels = make(map[string]string)
		}
		l = a.name + ">" + target
		a.routeLabels[target] = l
	}
	return l
}

// Name returns the agent's island name.
func (a *Agent) Name() string { return a.name }

// Stats returns a snapshot of the agent's coordination counters.
func (a *Agent) Stats() AgentStats { return a.stats }

// EnableHeartbeat starts emitting liveness beacons toward the controller
// every interval. Heartbeats bypass the rate limiter and degradation
// suppression (they are how the lease recovers) but are silenced during a
// crash window. It returns a stop function cancelling the ticker.
func (a *Agent) EnableHeartbeat(s *sim.Simulator, interval sim.Time) (stop func()) {
	if s == nil {
		panic(fmt.Sprintf("core: agent %q heartbeat needs a simulator", a.name))
	}
	if interval <= 0 {
		panic(fmt.Sprintf("core: agent %q heartbeat interval %v must be positive", a.name, interval))
	}
	return s.Ticker(interval, func() {
		if a.crashed {
			return
		}
		a.stats.HeartbeatsSent++
		msg := Message{Kind: KindHeartbeat, From: a.name}
		if a.uplink != nil {
			a.uplink.Send(msg)
		} else {
			a.route(msg)
		}
	})
}

// EnableDegradation starts the uplink-health monitor: the agent degrades
// (policies silenced, actuators revertible to baseline via OnDegrade) when
// the controller goes silent past LeaseTimeout or the uplink's LinkHealth
// reports down, and recovers as soon as either signal returns. It returns a
// stop function cancelling the monitor.
func (a *Agent) EnableDegradation(s *sim.Simulator, cfg DegradeConfig) (stop func()) {
	if s == nil {
		panic(fmt.Sprintf("core: agent %q degradation monitor needs a simulator", a.name))
	}
	cfg.applyDefaults()
	a.dsim = s
	a.dcfg = cfg
	a.lastHeard = s.Now()
	return s.Ticker(cfg.CheckPeriod, a.healthCheck)
}

// healthCheck evaluates the uplink-health signals and transitions the
// degraded flag.
func (a *Agent) healthCheck() {
	silent := a.dsim.Now()-a.lastHeard > a.dcfg.LeaseTimeout
	linkDown := a.health != nil && !a.health.Up()
	a.setDegraded(silent || linkDown)
}

// setDegraded transitions the degradation state and fires hooks.
func (a *Agent) setDegraded(d bool) {
	if a.degraded == d {
		return
	}
	a.degraded = d
	if d {
		a.stats.Degradations++
		if a.dcfg.OnDegrade != nil {
			a.dcfg.OnDegrade()
		}
		return
	}
	a.stats.Recoveries++
	if a.dcfg.OnRecover != nil {
		a.dcfg.OnRecover()
	}
}

// Degraded reports whether the agent currently believes its uplink dead.
func (a *Agent) Degraded() bool { return a.degraded }

// SetCrashed simulates an island crash window: while crashed the agent
// sends nothing (heartbeats included, so its controller lease expires) and
// drops everything inbound. Clearing it models the island restarting.
func (a *Agent) SetCrashed(crashed bool) { a.crashed = crashed }

// Crashed reports whether the agent is inside a crash window.
func (a *Agent) Crashed() bool { return a.crashed }

// ActuationEpoch returns how many actuation messages (Tune/Trigger/Shed)
// the agent has accepted for its actuator — the island's authoritative
// side of failover's anti-entropy epoch comparison.
func (a *Agent) ActuationEpoch() uint64 { return a.actEpoch }

// SendTune emits a Tune request: adjust entity's resources in the target
// island by delta (positive = increase). Returns false if rate-limited.
func (a *Agent) SendTune(target string, entity, delta int) bool {
	return a.send(Message{Kind: KindTune, From: a.name, Target: target, Entity: entity, Delta: delta})
}

// SendTrigger emits a Trigger request: allocate resources to entity in the
// target island as soon as possible. Returns false if rate-limited.
func (a *Agent) SendTrigger(target string, entity int) bool {
	return a.send(Message{Kind: KindTrigger, From: a.name, Target: target, Entity: entity})
}

func (a *Agent) send(msg Message) bool {
	if a.crashed {
		a.stats.SuppressedCrashed++
		return false
	}
	if a.degraded {
		// Graceful degradation: a policy output computed against a stale
		// view of the platform is worse than none; withhold it until the
		// uplink recovers.
		a.stats.SuppressedDegraded++
		return false
	}
	if a.limiter != nil && !a.limiter.Allow(msg.Kind, msg.Entity) {
		a.stats.RateLimitDropped++
		return false
	}
	switch msg.Kind {
	case KindTune:
		a.stats.TunesSent++
	case KindTrigger:
		a.stats.TriggersSent++
	case KindShed:
		a.stats.ShedsSent++
	case KindRegister, KindAck, KindHeartbeat:
		// Registration is controller-driven and protocol messages are
		// emitted by their own paths; agents forward them uncounted.
	}
	if a.flight != nil {
		a.flight.Record(flight.Event{
			T: a.fsim.Now(), Cat: flight.CatSend, Code: uint8(msg.Kind),
			Label: a.routeLabel(msg.Target), Entity: int32(msg.Entity), Arg: int64(msg.Delta),
		})
	}
	if a.uplink != nil {
		a.uplink.Send(msg)
	} else {
		a.route(msg)
	}
	return true
}

// Deliver applies an inbound coordination message to the local resource
// manager. Wire it as the receiver of the island's downlink (or pass it as
// IslandHandle.Local for co-located islands).
func (a *Agent) Deliver(msg Message) {
	if a.crashed {
		a.stats.CrashDrops++
		return
	}
	switch msg.Kind {
	case KindHeartbeat:
		// Controller ping: evidence the uplink is alive.
		a.stats.HeartbeatsSeen++
		if a.dsim != nil {
			a.lastHeard = a.dsim.Now()
			a.setDegraded(false)
		}
		return
	case KindAck:
		// Reliability-layer leakage; the endpoint consumes acks, so one
		// arriving here is counted as an apply error below.
	case KindTune, KindTrigger, KindRegister, KindShed:
	}
	if a.actuator == nil {
		a.stats.ApplyErrors++
		return
	}
	if a.flight != nil {
		a.flight.Record(flight.Event{
			T: a.fsim.Now(), Cat: flight.CatApply, Code: uint8(msg.Kind),
			Label: a.name, Entity: int32(msg.Entity), Arg: int64(msg.Delta),
		})
	}
	var err error
	switch msg.Kind {
	case KindTune, KindTrigger, KindShed:
		a.actEpoch++
	case KindRegister, KindAck, KindHeartbeat:
	}
	switch msg.Kind {
	case KindTune:
		err = a.actuator.ApplyTune(msg.Entity, msg.Delta)
		if err == nil {
			a.stats.TunesApplied++
		}
	case KindTrigger:
		err = a.actuator.ApplyTrigger(msg.Entity)
		if err == nil {
			a.stats.TriggersApplied++
		}
	case KindShed:
		if sa, ok := a.actuator.(ShedActuator); ok {
			err = sa.ApplyShed(msg.Entity, msg.Delta)
			if err == nil {
				a.stats.ShedsApplied++
			}
		} else {
			err = fmt.Errorf("core: agent %q actuator cannot shed", a.name)
		}
	default:
		err = fmt.Errorf("core: agent %q cannot apply %v", a.name, msg.Kind)
	}
	if err != nil {
		a.stats.ApplyErrors++
	}
}
