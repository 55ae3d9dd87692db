package core

import (
	"fmt"
	"sort"

	"repro/internal/flight"
	"repro/internal/sim"
)

// IslandHandle is the controller's view of a registered scheduling island:
// a name plus the downlink used to reach its agent. Islands co-located with
// the controller (the x86 island in the prototype) register with a nil
// downlink and a local delivery function instead.
type IslandHandle struct {
	Name     string
	Downlink Transport     // nil for co-located islands
	Local    func(Message) // delivery for co-located islands
}

// UnrouteReason classifies why a coordination message could not be routed.
type UnrouteReason int

// Unroutable-message reasons.
const (
	// UnrouteUnknownTarget: the message names an island that never
	// registered.
	UnrouteUnknownTarget UnrouteReason = iota
	// UnrouteUnknownEntity: the message names an entity that never
	// registered.
	UnrouteUnknownEntity
	// UnrouteQuarantined: the target island (or the entity's home island)
	// holds an expired lease; its entities are quarantined until it
	// rejoins.
	UnrouteQuarantined
)

// unrouteReasonCount is the number of declared reasons (array sizing).
const unrouteReasonCount = 3

// String names the reason.
func (r UnrouteReason) String() string {
	switch r {
	case UnrouteUnknownTarget:
		return "unknown-target"
	case UnrouteUnknownEntity:
		return "unknown-entity"
	case UnrouteQuarantined:
		return "quarantined"
	default:
		return fmt.Sprintf("UnrouteReason(%d)", int(r))
	}
}

// UnrouteReasons lists every declared reason in declaration (and reporting)
// order.
func UnrouteReasons() []UnrouteReason {
	return []UnrouteReason{UnrouteUnknownTarget, UnrouteUnknownEntity, UnrouteQuarantined}
}

// OverloadControlConfig parameterizes the controller's overload-Trigger
// translation (EnableOverloadControl).
type OverloadControlConfig struct {
	// Upstream names the island with early traffic visibility (the IXP in
	// the prototype): every routed Trigger also sends it a KindShed
	// adjustment so excess traffic is shed before crossing the mailbox.
	Upstream string
	// ShedStep is the Delta of each upstream KindShed (default 1).
	ShedStep int
	// BoostDelta, when nonzero, additionally routes a KindTune with this
	// Delta to the trigger's own target — the weight boost half of the
	// translation (the Trigger itself already carries the runqueue boost).
	BoostDelta int
}

func (c *OverloadControlConfig) applyDefaults() {
	if c.ShedStep == 0 {
		c.ShedStep = 1
	}
}

// Controller is the global coordination controller: the first privileged
// domain to boot registers it, every island and spanning entity registers
// with it, and it routes coordination messages between islands (§2.3).
type Controller struct {
	islands  map[string]IslandHandle
	entities map[int]Entity

	routed     uint64
	unroutable [unrouteReasonCount]uint64

	// Overload-control translation state (EnableOverloadControl).
	overload   *OverloadControlConfig
	shedTunes  uint64
	boostTunes uint64

	flight      *flight.Recorder  // optional flight recorder
	fsim        *sim.Simulator    // timestamp source for flight events
	routeLabels map[string]string // interned "controller>target" flight labels

	// Heartbeat/lease watchdog state (EnableWatchdog).
	leases    leaseTable
	strayAcks uint64

	// epochs counts actuation messages (Tune/Trigger/Shed) successfully
	// routed to each island — the controller's view of how far each
	// agent's actuation state has advanced. Failover's anti-entropy
	// reconciliation compares it against Agent.ActuationEpoch.
	epochs map[string]uint64
}

// NewController returns an empty controller.
func NewController() *Controller {
	c := &Controller{
		islands:  make(map[string]IslandHandle),
		entities: make(map[int]Entity),
		epochs:   make(map[string]uint64),
	}
	c.leases = newLeaseTable(func(code uint8, island string) { c.recordLease(code, island, -1) })
	return c
}

// SetFlightRecorder taps lease transitions, quarantine drops, and
// overload-control translations into the flight recorder (nil disables);
// event timestamps come from s.
func (c *Controller) SetFlightRecorder(s *sim.Simulator, r *flight.Recorder) {
	c.fsim, c.flight = s, r
}

// recordLease records one lease-machine flight event.
func (c *Controller) recordLease(code uint8, island string, entity int) {
	if c.flight != nil {
		c.flight.Record(flight.Event{
			T: c.fsim.Now(), Cat: flight.CatLease, Code: code,
			Label: island, Entity: int32(entity), Arg: 0,
		})
	}
}

// recordSend records one controller-emitted coordination message (the
// overload-control translation fan-out).
func (c *Controller) recordSend(msg Message) {
	if c.flight != nil {
		c.flight.Record(flight.Event{
			T: c.fsim.Now(), Cat: flight.CatSend, Code: uint8(msg.Kind),
			Label: c.routeLabel(msg.Target), Entity: int32(msg.Entity), Arg: int64(msg.Delta),
		})
	}
}

// routeLabel interns the "controller>target" flight label so steady-state
// translations do not allocate a fresh string per message.
func (c *Controller) routeLabel(target string) string {
	l, ok := c.routeLabels[target]
	if !ok {
		if c.routeLabels == nil {
			c.routeLabels = make(map[string]string)
		}
		l = "controller>" + target
		c.routeLabels[target] = l
	}
	return l
}

// RegisterIsland adds an island to the routing table. Exactly one of
// h.Downlink and h.Local must be set.
func (c *Controller) RegisterIsland(h IslandHandle) error {
	if h.Name == "" {
		return fmt.Errorf("core: island with empty name")
	}
	if _, dup := c.islands[h.Name]; dup {
		return fmt.Errorf("core: island %q already registered", h.Name)
	}
	if (h.Downlink == nil) == (h.Local == nil) {
		return fmt.Errorf("core: island %q must set exactly one of Downlink and Local", h.Name)
	}
	c.islands[h.Name] = h
	return nil
}

// RegisterEntity records a platform-wide entity (e.g. a guest VM that will
// send and receive traffic through the IXP).
func (c *Controller) RegisterEntity(e Entity) error {
	if _, dup := c.entities[e.ID]; dup {
		return fmt.Errorf("core: entity %d already registered", e.ID)
	}
	if _, ok := c.islands[e.Home]; e.Home != "" && !ok {
		return fmt.Errorf("core: entity %d names unknown home island %q", e.ID, e.Home)
	}
	c.entities[e.ID] = e
	return nil
}

// Entity returns the registered entity with the given ID.
func (c *Controller) Entity(id int) (Entity, bool) {
	e, ok := c.entities[id]
	return e, ok
}

// Islands returns the registered island names, sorted.
func (c *Controller) Islands() []string {
	names := make([]string, 0, len(c.islands))
	for n := range c.islands {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// EnableWatchdog starts the heartbeat/lease watchdog: islands that have
// heartbeated at least once are tracked through the Alive -> Suspect ->
// Dead lease machine; a Dead island's entities are quarantined (routing to
// them counts as UnrouteQuarantined) until a new heartbeat rejoins it. Each
// sweep the controller also pings every remote island's downlink with a
// heartbeat so agents can detect a dead uplink symmetrically. It returns a
// stop function cancelling the sweep.
func (c *Controller) EnableWatchdog(s *sim.Simulator, cfg WatchdogConfig) (stop func()) {
	if s == nil {
		panic("core: controller watchdog needs a simulator")
	}
	c.leases.enable(s, cfg)
	return s.Ticker(c.leases.cfg.CheckPeriod, c.watchdogSweep)
}

// watchdogSweep advances lease states and pings remote islands.
func (c *Controller) watchdogSweep() {
	c.leases.sweep(c.Islands())
	for _, name := range c.Islands() {
		h := c.islands[name]
		ping := Message{Kind: KindHeartbeat, Target: name}
		switch {
		case h.Downlink != nil:
			h.Downlink.Send(ping)
		case h.Local != nil:
			// Co-located islands get the same liveness evidence: their
			// agents run the uplink-health monitor too, and a controller
			// that dies (failover) must look dead to every island.
			h.Local(ping)
		}
	}
}

// observeHeartbeat renews the island's lease, rejoining it if dead.
// Heartbeats from unregistered islands are counted but otherwise ignored.
func (c *Controller) observeHeartbeat(island string) {
	_, known := c.islands[island]
	c.leases.observe(island, known)
}

// LeaseOf returns the island's lease state. Islands that never heartbeated
// (or predate the watchdog) report LeaseAlive and false.
func (c *Controller) LeaseOf(island string) (LeaseState, bool) { return c.leases.state(island) }

// Route delivers msg to its target island. Heartbeats renew the sender's
// lease and are consumed here. Unknown targets, unknown entities, and
// quarantined (lease-expired) islands are counted per reason and dropped —
// a coordination layer must tolerate stale identifiers, not crash the
// control plane.
func (c *Controller) Route(msg Message) {
	switch msg.Kind {
	case KindHeartbeat:
		c.observeHeartbeat(msg.From)
		return
	case KindAck:
		// Acks belong to the reliability layer below the controller; one
		// surfacing here is a wiring bug, counted rather than routed.
		c.strayAcks++
		return
	case KindTune, KindTrigger, KindRegister, KindShed:
	}
	h, ok := c.islands[msg.Target]
	if !ok {
		c.unroutable[UnrouteUnknownTarget]++
		return
	}
	if c.leases.dead(msg.Target) {
		c.unroutable[UnrouteQuarantined]++
		c.recordLease(flight.LeaseQuarantine, msg.Target, msg.Entity)
		return
	}
	e, ok := c.entities[msg.Entity]
	if !ok {
		c.unroutable[UnrouteUnknownEntity]++
		return
	}
	if e.Home != "" && c.leases.dead(e.Home) {
		c.unroutable[UnrouteQuarantined]++
		c.recordLease(flight.LeaseQuarantine, e.Home, msg.Entity)
		return
	}
	c.routed++
	switch msg.Kind {
	case KindTune, KindTrigger, KindShed:
		// Actuation epoch: the controller's view of how far the target
		// agent's actuation state has advanced. Failover reconciliation
		// compares it against the agent's own count.
		c.epochs[msg.Target]++
	case KindRegister, KindAck, KindHeartbeat:
	}
	if h.Local != nil {
		h.Local(msg)
	} else {
		h.Downlink.Send(msg)
	}
	if msg.Kind == KindTrigger && c.overload != nil {
		c.translateTrigger(msg)
	}
}

// EnableOverloadControl arms the Trigger translation: every successfully
// routed Trigger is expanded into a weight-boost Tune toward its target
// (when BoostDelta is set) plus an upstream KindShed toward the island
// that sees traffic first — the paper's coordination argument under load:
// the island with early visibility protects the island doing expensive
// work.
func (c *Controller) EnableOverloadControl(cfg OverloadControlConfig) {
	if cfg.Upstream == "" {
		panic("core: overload control needs an upstream island")
	}
	cfg.applyDefaults()
	c.overload = &cfg
}

// translateTrigger fans one routed Trigger into its overload-control
// actions. The emitted kinds are Tune and Shed, so translation never
// recurses.
func (c *Controller) translateTrigger(msg Message) {
	oc := c.overload
	if oc.BoostDelta != 0 {
		c.boostTunes++
		m := Message{Kind: KindTune, From: "controller", Target: msg.Target, Entity: msg.Entity, Delta: oc.BoostDelta}
		c.recordSend(m)
		c.Route(m)
	}
	if oc.Upstream != msg.Target {
		c.shedTunes++
		m := Message{Kind: KindShed, From: "controller", Target: oc.Upstream, Entity: msg.Entity, Delta: oc.ShedStep}
		c.recordSend(m)
		c.Route(m)
	}
}

// ShedTunesIssued returns upstream shed adjustments emitted by the
// overload-control translation.
func (c *Controller) ShedTunesIssued() uint64 { return c.shedTunes }

// BoostTunesIssued returns weight-boost Tunes emitted by the
// overload-control translation.
func (c *Controller) BoostTunesIssued() uint64 { return c.boostTunes }

// Routed returns the number of successfully routed messages.
func (c *Controller) Routed() uint64 { return c.routed }

// Unroutable returns the total messages dropped across every reason.
func (c *Controller) Unroutable() uint64 {
	var total uint64
	for _, n := range c.unroutable {
		total += n
	}
	return total
}

// UnroutableFor returns messages dropped for one reason.
func (c *Controller) UnroutableFor(r UnrouteReason) uint64 {
	if r < 0 || int(r) >= unrouteReasonCount {
		return 0
	}
	return c.unroutable[r]
}

// UnroutableByReason returns every reason's drop count in declaration
// order — deterministic reporting for harness output.
func (c *Controller) UnroutableByReason() []struct {
	Reason UnrouteReason
	Count  uint64
} {
	out := make([]struct {
		Reason UnrouteReason
		Count  uint64
	}, 0, unrouteReasonCount)
	for _, r := range UnrouteReasons() {
		out = append(out, struct {
			Reason UnrouteReason
			Count  uint64
		}{r, c.unroutable[r]})
	}
	return out
}

// Heartbeats returns heartbeat messages observed.
func (c *Controller) Heartbeats() uint64 { return c.leases.heartbeats }

// StrayAcks returns reliability-layer acks that erroneously reached the
// controller.
func (c *Controller) StrayAcks() uint64 { return c.strayAcks }

// LeaseExpiries returns islands whose lease expired (suspect -> dead).
func (c *Controller) LeaseExpiries() uint64 { return c.leases.expiries }

// Rejoins returns dead islands that re-registered via a fresh heartbeat.
func (c *Controller) Rejoins() uint64 { return c.leases.rejoins }

// FlapSuppressed returns rejoins suppressed by the hysteresis window: the
// island came back before serving the minimum dead time, so the comeback
// was held on probation instead of counting immediately.
func (c *Controller) FlapSuppressed() uint64 { return c.leases.flaps }

// RoutedEpoch returns the controller's actuation epoch for the island: how
// many Tune/Trigger/Shed messages it has successfully routed there.
func (c *Controller) RoutedEpoch(island string) uint64 { return c.epochs[island] }

// setRoutedEpoch overwrites the island's actuation epoch — the anti-entropy
// adoption step, where the agent's authoritative local count wins.
func (c *Controller) setRoutedEpoch(island string, epoch uint64) {
	c.epochs[island] = epoch
}
