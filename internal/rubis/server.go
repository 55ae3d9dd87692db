package rubis

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/netsim"
	"repro/internal/overload"
	"repro/internal/sim"
	"repro/internal/xen"
)

// Tier indexes the three server tiers.
type Tier int

// The three RUBiS tiers, pipeline order.
const (
	TierWeb Tier = iota
	TierApp
	TierDB
	NumTiers
)

// String names the tier.
func (t Tier) String() string {
	switch t {
	case TierWeb:
		return "web"
	case TierApp:
		return "app"
	case TierDB:
		return "db"
	default:
		return fmt.Sprintf("Tier(%d)", int(t))
	}
}

// shedRespBytes sizes the small error response a shed request receives so
// closed-loop clients observe the rejection instead of stalling.
const shedRespBytes = 512

// OverloadConfig tunes the server-side admission control. The zero value
// (or a nil pointer in ServerConfig) leaves admission unbounded — the
// legacy cascade behaviour.
type OverloadConfig struct {
	// QueueCap bounds each tier's admission queue (default 512; negative
	// means unbounded).
	QueueCap int
	// QueueDeadline expires requests that queue longer than this (default
	// 4s; negative means no deadline).
	QueueDeadline sim.Time
	// Policy selects the shed policy (default priority-aware: browse
	// requests are shed before bid/write traffic).
	Policy overload.Policy
	// Threshold is the EWMA queue-delay level at which a tier declares
	// overload (default 250ms; the hysteresis floor is half of it).
	Threshold sim.Time
}

func (c *OverloadConfig) applyDefaults() {
	if c.QueueCap == 0 {
		c.QueueCap = 512
	}
	if c.QueueDeadline == 0 {
		c.QueueDeadline = 4 * sim.Second
	}
	if c.Threshold == 0 {
		c.Threshold = 250 * sim.Millisecond
	}
}

// demandNoise is the coefficient of variation applied to per-tier service
// demands.
const demandNoise = 0.2

// bridgeCost is the Dom0 CPU charged per inter-VM hop over the Xen bridge.
const bridgeCost = 150 * sim.Microsecond

// ServerConfig tunes the server-side deployment.
type ServerConfig struct {
	// Worker-pool sizes. The tiers are synchronous, as in the real stack:
	// an Apache worker is held for a request's whole lifetime, a Tomcat
	// worker while the servlet (and any database call) runs, a MySQL
	// connection while the query runs. Pool exhaustion is what couples the
	// tiers — when the database falls behind, app workers block on it, web
	// workers block on the app tier, and even static browsing stalls. This
	// cascade is what the paper's coordination scheme interrupts.
	WebWorkers int // default 128
	AppWorkers int // default 64
	DBWorkers  int // default 24

	// Overload, when non-nil, bounds each tier's admission queue with a
	// per-request queueing deadline and a shed policy, and arms per-tier
	// EWMA overload detectors on the queueing delay. Nil keeps the tiers
	// unbounded.
	Overload *OverloadConfig

	// Flight, when non-nil, taps each tier queue's admission verdicts into
	// the flight recorder under the tier name ("web"/"app"/"db").
	Flight *flight.Recorder
}

func (c *ServerConfig) applyDefaults() {
	if c.WebWorkers == 0 {
		c.WebWorkers = 128
	}
	if c.AppWorkers == 0 {
		c.AppWorkers = 64
	}
	if c.DBWorkers == 0 {
		c.DBWorkers = 24
	}
}

// Server is the three-tier RUBiS deployment: web, application, and database
// VMs, with inter-tier communication relayed through the Dom0 bridge. It
// consumes request packets delivered by the host stack to the web VM and
// transmits response packets back toward the client. Each tier admits work
// through a bounded deadline queue (unbounded when ServerConfig.Overload is
// nil) so saturation sheds load instead of growing queues without limit.
type Server struct {
	sim     *sim.Simulator
	cfg     ServerConfig
	web     *xen.Domain
	app     *xen.Domain
	db      *xen.Domain
	host    *netsim.HostStack
	catalog [NumRequestTypes]Profile
	rng     *sim.Rand

	queues    [NumTiers]*overload.Queue
	detectors [NumTiers]*overload.Detector
	notify    func(tier Tier, overloaded bool)

	served uint64
	sheds  uint64 // shed responses issued (admission rejections + expiries)
}

// NewServer wires the three tier domains behind the host stack's handler
// for the web VM. All request traffic must carry a *Request payload.
func NewServer(s *sim.Simulator, cfg ServerConfig, web, app, db *xen.Domain, host *netsim.HostStack) *Server {
	cfg.applyDefaults()
	srv := &Server{
		sim:     s,
		cfg:     cfg,
		web:     web,
		app:     app,
		db:      db,
		host:    host,
		catalog: DefaultCatalog(),
		rng:     s.Rand().Fork(),
	}
	qcfg := overload.QueueConfig{Cap: -1} // unbounded, no deadline
	if cfg.Overload != nil {
		oc := *cfg.Overload
		oc.applyDefaults()
		qcfg = overload.QueueConfig{Cap: oc.QueueCap, Deadline: oc.QueueDeadline, Policy: oc.Policy}
	}
	workers := [NumTiers]int{cfg.WebWorkers, cfg.AppWorkers, cfg.DBWorkers}
	for t := TierWeb; t < NumTiers; t++ {
		srv.queues[t] = overload.NewQueue(s, workers[t], qcfg)
		srv.queues[t].SetFlightRecorder(cfg.Flight, t.String())
	}
	if cfg.Overload != nil {
		oc := *cfg.Overload
		oc.applyDefaults()
		for t := TierWeb; t < NumTiers; t++ {
			tier := t
			det := overload.NewDetector(overload.DetectorConfig{Threshold: oc.Threshold})
			det.OnChange = func(over bool) {
				if srv.notify != nil {
					srv.notify(tier, over)
				}
			}
			srv.detectors[tier] = det
			srv.queues[tier].OnDelay(func(_ overload.Class, delay sim.Time) {
				det.Sample(delay)
			})
		}
	}
	host.Register(web.ID(), srv.onRequest)
	return srv
}

// Catalog returns the server's request profiles (mutable for ablations).
func (s *Server) Catalog() *[NumRequestTypes]Profile { return &s.catalog }

// Served returns the number of requests fully processed.
func (s *Server) Served() uint64 { return s.served }

// Sheds returns the number of shed responses issued (admission rejections
// plus queueing-deadline expiries, across all tiers).
func (s *Server) Sheds() uint64 { return s.sheds }

// Tiers returns the web, app, and db domains.
func (s *Server) Tiers() (web, app, db *xen.Domain) { return s.web, s.app, s.db }

// TierDomain returns the domain hosting the tier.
func (s *Server) TierDomain(t Tier) *xen.Domain {
	return [NumTiers]*xen.Domain{s.web, s.app, s.db}[t]
}

// Queue returns the tier's admission queue (counters, config, occupancy).
func (s *Server) Queue(t Tier) *overload.Queue { return s.queues[t] }

// Detector returns the tier's overload detector, nil when admission
// control is off.
func (s *Server) Detector(t Tier) *overload.Detector { return s.detectors[t] }

// SetOverloadNotify installs the hook fired on every tier overload
// transition — the coordination plane raises Triggers from it.
func (s *Server) SetOverloadNotify(fn func(tier Tier, overloaded bool)) { s.notify = fn }

// PoolWaiting returns the number of requests queued for admission at each
// tier's worker pool — the visible symptom of the cross-tier cascade.
func (s *Server) PoolWaiting() (web, app, db int) {
	return s.queues[TierWeb].Waiting(), s.queues[TierApp].Waiting(), s.queues[TierDB].Waiting()
}

// classFor maps a request's profiled kind onto the admission class the
// shed policies act on: browsing (read) traffic is expendable, bid/write
// (transactional) traffic is protected.
func classFor(kind core.RequestKind) overload.Class {
	if kind == core.WriteRequest {
		return overload.ClassTransact
	}
	return overload.ClassBrowse
}

// demand draws a noisy service demand around mean.
func (s *Server) demand(mean sim.Time) sim.Time {
	if mean <= 0 {
		return 0
	}
	sd := mean.Scale(demandNoise)
	min := mean.Scale(0.2)
	return s.rng.TruncNormalTime(mean, sd, min)
}

// onRequest runs one request through the synchronous tier pipeline:
// acquire a web worker -> web CPU -> (bridge) -> acquire an app worker ->
// app CPU -> (bridge) -> acquire a DB connection -> DB CPU -> release all
// -> respond. Tiers with zero profiled demand are skipped (browsing
// requests touch the database only negligibly) and do not take workers.
// Because workers are held across downstream calls, a backlogged database
// exhausts the app pool and then the web pool, stalling unrelated requests
// — the cross-tier cascade the coordination policy combats. With admission
// control armed, a saturated tier sheds instead: the rejected request
// releases every upstream worker it held and a small error response goes
// back, so shedding one tier's backlog frees capacity in all of them.
func (s *Server) onRequest(p *netsim.Packet) {
	req, ok := p.Payload.(*Request)
	if !ok {
		panic(fmt.Sprintf("rubis: packet %d without request payload", p.ID))
	}
	prof := s.catalog[req.Type]
	class := classFor(prof.Kind)

	finish := func() {
		s.queues[TierWeb].Release()
		s.served++
		// Responses are segmented at the MTU; only the final segment
		// carries the request payload, so the client (and the IXP's
		// response-observing DPIs) see exactly one completion event per
		// request, once the whole response has left the host.
		const mtu = 1500
		remaining := prof.RespBytes
		for remaining > 0 {
			size := remaining
			if size > mtu {
				size = mtu
			}
			remaining -= size
			pkt := &netsim.Packet{
				ID:      p.ID,
				Size:    size,
				SrcVM:   s.web.ID(),
				DstVM:   -1,
				Class:   netsim.Class(req.Type.String()),
				Created: s.sim.Now(),
			}
			if remaining == 0 {
				pkt.Payload = req
			}
			s.host.Transmit(pkt)
		}
	}

	// shedAt rejects the request at a tier: release the upstream workers
	// the pipeline holds (the web worker always, the app worker when held)
	// and answer with a small error response so the session continues.
	shedAt := func(releaseApp bool) func(bool) {
		return func(bool) {
			if releaseApp {
				s.queues[TierApp].Release()
			}
			s.queues[TierWeb].Release()
			s.shedResponse(p.ID, req)
		}
	}

	dbStage := func(done func(), abort func(expired bool)) {
		d := s.demand(prof.DB)
		if d <= 0 {
			done()
			return
		}
		s.queues[TierDB].Acquire(class, func() {
			s.db.SubmitFunc(d, "db:"+req.Type.String(), func() {
				s.queues[TierDB].Release()
				done()
			})
		}, abort)
	}
	appStage := func(done func()) {
		d := s.demand(prof.App)
		if d <= 0 {
			dbStage(done, shedAt(false))
			return
		}
		s.queues[TierApp].Acquire(class, func() {
			s.app.SubmitFunc(d, "app:"+req.Type.String(), func() {
				s.bridgeHop(func() {
					dbStage(func() {
						s.queues[TierApp].Release()
						done()
					}, shedAt(true))
				})
			})
		}, shedAt(false))
	}
	s.queues[TierWeb].Acquire(class, func() {
		webDemand := s.demand(prof.Web)
		if webDemand <= 0 {
			webDemand = sim.Millisecond / 2
		}
		s.web.SubmitFunc(webDemand, "web:"+req.Type.String(), func() {
			s.bridgeHop(func() { appStage(finish) })
		})
	}, func(bool) {
		// Rejected at the front door: no workers held yet.
		s.shedResponse(p.ID, req)
	})
}

// shedResponse transmits the small error response a shed request gets.
// The request payload rides back marked Shed so the client advances the
// session without recording a served latency.
func (s *Server) shedResponse(pktID uint64, req *Request) {
	s.sheds++
	req.Shed = true
	s.host.Transmit(&netsim.Packet{
		ID:      pktID,
		Size:    shedRespBytes,
		SrcVM:   s.web.ID(),
		DstVM:   -1,
		Class:   netsim.Class(req.Type.String()),
		Payload: req,
		Created: s.sim.Now(),
	})
}

// bridgeHop charges Dom0 for relaying an inter-VM message over the Xen
// bridge, then continues the pipeline.
func (s *Server) bridgeHop(next func()) {
	s.host.Dom0().SubmitFunc(bridgeCost, "bridge", next)
}
