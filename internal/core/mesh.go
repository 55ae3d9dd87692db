package core

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Mesh is the distributed alternative to the central Controller — the
// paper's ongoing work on "distributed coordination algorithms across
// multiple island resource managers" (§5). Every island keeps a replica of
// the entity directory and addresses peer islands over direct transports,
// removing the controller hop and its serialization (see the scalability
// experiment for the quantitative comparison).
//
// The mesh shares the Controller's robustness surface: per-reason
// unroutable counters, a heartbeat/lease watchdog (EnableWatchdog, fed by
// agents' EnableHeartbeat beacons broadcast to every peer), and optional
// ack/retry links (EnableReliableLinks).
type Mesh struct {
	factory  func(from, to string) Transport
	nodes    map[string]*meshNode
	order    []string
	entities map[int]Entity // replicated directory

	routed     uint64
	unroutable [unrouteReasonCount]uint64

	// Reliable-link decoration (EnableReliableLinks).
	rsim *sim.Simulator
	rcfg ReliableConfig
	rel  bool
	eps  []*ReliableEndpoint

	// Heartbeat/lease watchdog state (EnableWatchdog).
	leases leaseTable
}

// meshNode is one island's endpoint: its agent plus direct links to peers.
type meshNode struct {
	name  string
	agent *Agent
	links map[string]Transport // keyed by peer island
}

// NewMesh builds a mesh whose island-to-island transports come from
// factory (called once per ordered pair as islands join).
func NewMesh(factory func(from, to string) Transport) *Mesh {
	if factory == nil {
		panic("core: mesh with nil transport factory")
	}
	return &Mesh{
		factory:  factory,
		nodes:    make(map[string]*meshNode),
		entities: make(map[int]Entity),
		leases:   newLeaseTable(nil),
	}
}

// EnableReliableLinks decorates every island-to-island link created from
// now on with a pair of ReliableEndpoints (sequence numbers, ack/retry,
// dedup/reorder delivery). Call it before AddIsland; joining islands first
// is a wiring bug and panics.
func (m *Mesh) EnableReliableLinks(s *sim.Simulator, cfg ReliableConfig) {
	if s == nil {
		panic("core: mesh reliable links need a simulator")
	}
	if len(m.nodes) > 0 {
		panic("core: EnableReliableLinks must precede AddIsland")
	}
	m.rsim = s
	m.rcfg = cfg
	m.rel = true
}

// AddIsland joins an island to the mesh, creating direct transports to and
// from every existing member, and returns its coordination agent.
func (m *Mesh) AddIsland(name string, act Actuator, opts ...AgentOption) (*Agent, error) {
	if name == "" {
		return nil, fmt.Errorf("core: mesh island with empty name")
	}
	if _, dup := m.nodes[name]; dup {
		return nil, fmt.Errorf("core: mesh island %q already joined", name)
	}
	node := &meshNode{name: name, links: make(map[string]Transport)}
	route := func(msg Message) { m.route(node, msg) }
	node.agent = NewAgent(name, nil, route, act, opts...)

	for _, peerName := range m.order {
		peer := m.nodes[peerName]
		out := m.factory(name, peerName)
		back := m.factory(peerName, name)
		if m.rel {
			// Each endpoint sends on its own outbound direction and
			// consumes the reverse one; acks ride the reverse direction.
			epOut := NewReliableEndpoint(m.rsim, name+"->"+peerName, out, back, m.rcfg)
			epOut.SetReceiver(m.receiver(node))
			epBack := NewReliableEndpoint(m.rsim, peerName+"->"+name, back, out, m.rcfg)
			epBack.SetReceiver(m.receiver(peer))
			m.eps = append(m.eps, epOut, epBack)
			node.links[peerName] = epOut
			peer.links[name] = epBack
			continue
		}
		out.SetReceiver(m.receiver(peer))
		node.links[peerName] = out
		back.SetReceiver(m.receiver(node))
		peer.links[name] = back
	}
	m.nodes[name] = node
	m.order = append(m.order, name)
	return node.agent, nil
}

// receiver returns the delivery function for messages arriving at node:
// heartbeats renew the sender's lease in the shared table before the
// node's agent sees them.
func (m *Mesh) receiver(node *meshNode) func(Message) {
	return func(msg Message) {
		if msg.Kind == KindHeartbeat {
			m.observeHeartbeat(msg.From)
		}
		node.agent.Deliver(msg)
	}
}

// RegisterEntity replicates an entity into every island's directory.
func (m *Mesh) RegisterEntity(e Entity) error {
	if _, dup := m.entities[e.ID]; dup {
		return fmt.Errorf("core: entity %d already registered", e.ID)
	}
	if e.Home != "" {
		if _, ok := m.nodes[e.Home]; !ok {
			return fmt.Errorf("core: entity %d names unknown home island %q", e.ID, e.Home)
		}
	}
	m.entities[e.ID] = e
	return nil
}

// Entity returns the replicated directory entry for id.
func (m *Mesh) Entity(id int) (Entity, bool) {
	e, ok := m.entities[id]
	return e, ok
}

// Islands returns the member island names, sorted.
func (m *Mesh) Islands() []string {
	out := make([]string, len(m.order))
	copy(out, m.order)
	sort.Strings(out)
	return out
}

// Agent returns the named island's agent, or nil.
func (m *Mesh) Agent(name string) *Agent {
	if n, ok := m.nodes[name]; ok {
		return n.agent
	}
	return nil
}

// Endpoints returns the reliable endpoints decorating the mesh links, in
// creation order (empty unless EnableReliableLinks was used).
func (m *Mesh) Endpoints() []*ReliableEndpoint {
	out := make([]*ReliableEndpoint, len(m.eps))
	copy(out, m.eps)
	return out
}

// EnableWatchdog starts the lease watchdog over the shared lease table:
// islands that have heartbeated at least once move Alive -> Suspect ->
// Dead on silence, and a dead island's entities are quarantined until a
// fresh heartbeat rejoins it, with the Controller's flap hysteresis. It
// returns a stop function.
func (m *Mesh) EnableWatchdog(s *sim.Simulator, cfg WatchdogConfig) (stop func()) {
	if s == nil {
		panic("core: mesh watchdog needs a simulator")
	}
	m.leases.enable(s, cfg)
	return s.Ticker(m.leases.cfg.CheckPeriod, func() { m.leases.sweep(m.Islands()) })
}

// observeHeartbeat renews the island's lease in the shared table.
func (m *Mesh) observeHeartbeat(island string) {
	_, known := m.nodes[island]
	m.leases.observe(island, known)
}

// LeaseOf returns the island's lease state; false if it never heartbeated.
func (m *Mesh) LeaseOf(island string) (LeaseState, bool) { return m.leases.state(island) }

// Routed and Unroutable mirror the Controller's counters.
func (m *Mesh) Routed() uint64 { return m.routed }

// Unroutable returns the total messages dropped across every reason.
func (m *Mesh) Unroutable() uint64 {
	var total uint64
	for _, n := range m.unroutable {
		total += n
	}
	return total
}

// UnroutableFor returns messages dropped for one reason.
func (m *Mesh) UnroutableFor(r UnrouteReason) uint64 {
	if r < 0 || int(r) >= unrouteReasonCount {
		return 0
	}
	return m.unroutable[r]
}

// Heartbeats returns heartbeat messages observed across all links.
func (m *Mesh) Heartbeats() uint64 { return m.leases.heartbeats }

// LeaseExpiries returns islands whose lease expired (suspect -> dead).
func (m *Mesh) LeaseExpiries() uint64 { return m.leases.expiries }

// Rejoins returns dead islands that rejoined via a fresh heartbeat.
func (m *Mesh) Rejoins() uint64 { return m.leases.rejoins }

// FlapSuppressed returns rejoins held on probation by the hysteresis
// window (see Controller.FlapSuppressed).
func (m *Mesh) FlapSuppressed() uint64 { return m.leases.flaps }

// route sends msg from the originating node directly to the target island.
// An agent heartbeat (no target) is broadcast to every peer so each
// island's view of the sender stays fresh.
func (m *Mesh) route(from *meshNode, msg Message) {
	if msg.Kind == KindHeartbeat {
		peers := make([]string, 0, len(from.links))
		for p := range from.links {
			peers = append(peers, p)
		}
		sort.Strings(peers)
		for _, p := range peers {
			from.links[p].Send(msg)
		}
		return
	}
	link, ok := from.links[msg.Target]
	if !ok {
		// A message to the local island applies locally — islands may use
		// the same policy code regardless of where the entity lives.
		if msg.Target == from.name {
			m.routed++
			from.agent.Deliver(msg)
			return
		}
		m.unroutable[UnrouteUnknownTarget]++
		return
	}
	if m.leases.dead(msg.Target) {
		m.unroutable[UnrouteQuarantined]++
		return
	}
	e, ok := m.entities[msg.Entity]
	if !ok {
		m.unroutable[UnrouteUnknownEntity]++
		return
	}
	if e.Home != "" && m.leases.dead(e.Home) {
		m.unroutable[UnrouteQuarantined]++
		return
	}
	m.routed++
	link.Send(msg)
}
