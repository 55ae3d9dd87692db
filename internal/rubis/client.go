package rubis

import (
	"repro/internal/ixp"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// shedBackoff is the mean pause a session takes after a shed (error)
// response before its next request — Retry-After semantics. Without it
// fast shed responses make rejected sessions spin, inflating offered load
// past what admission control saved.
const shedBackoff = 2 * sim.Second

// ClientConfig shapes the emulated RUBiS client (deployed on a separate
// host in the prototype; here it injects packets directly at the IXP wire).
type ClientConfig struct {
	Sessions           int      // concurrent user sessions (default 60)
	RequestsPerSession int      // requests per session (default 40)
	ThinkTime          sim.Time // mean exponential think time (default 500ms)
	Mix                *Mix     // workload mix (default BidMix)
	WebVM              int      // destination VM for request traffic
	Warmup             sim.Time // responses before this time are not recorded

	// Timeout, when positive, makes sessions abandon a page that has not
	// answered by then and move on (after a shedBackoff pause). The server
	// keeps working on the abandoned request — the wasted work that makes
	// uncontrolled overload collapse goodput, and the reason admission
	// control sheds early instead. A late response to an abandoned page is
	// discarded and never counted as served. 0 disables (the default):
	// sessions wait forever, as the calibrated baseline figures assume.
	Timeout sim.Time

	// Phases, when enabled, superimposes population-wide write surges on
	// the mix: during a window of PhaseWindow every PhasePeriod, write-class
	// transitions are favored by WriteBiasIn; outside it they are damped by
	// WriteBiasOut. This emulates the correlated bidding waves (auction
	// closings) that give the aggregate request stream the read/write phase
	// structure the paper's coordination policy tracks — and the rapid
	// read/write transitions at window edges that expose the coordination
	// channel's latency (§3.1).
	Phases           bool
	PhasePeriod      sim.Time // default 8s
	PhaseWindow      sim.Time // default 3s
	WriteBiasIn      float64  // default 6
	WriteBiasOut     float64  // default 0.15
	PhaseThinkFactor float64  // in-window think-time multiplier (default 0.4)
}

func (c *ClientConfig) applyDefaults() {
	if c.Sessions == 0 {
		c.Sessions = 60
	}
	if c.RequestsPerSession == 0 {
		c.RequestsPerSession = 40
	}
	if c.ThinkTime == 0 {
		c.ThinkTime = 500 * sim.Millisecond
	}
	if c.Mix == nil {
		c.Mix = BidMix()
	}
	if c.PhasePeriod == 0 {
		c.PhasePeriod = 8 * sim.Second
	}
	if c.PhaseWindow == 0 {
		c.PhaseWindow = 3 * sim.Second
	}
	if c.WriteBiasIn == 0 {
		c.WriteBiasIn = 6
	}
	if c.WriteBiasOut == 0 {
		c.WriteBiasOut = 0.15
	}
	if c.PhaseThinkFactor == 0 {
		c.PhaseThinkFactor = 0.4
	}
}

// inWindow reports whether now falls inside a write-surge window.
func (c *ClientConfig) inWindow(now sim.Time) bool {
	return c.Phases && now%c.PhasePeriod < c.PhaseWindow
}

// writeBias returns the current phase bias (1 when phases are disabled).
func (c *ClientConfig) writeBias(now sim.Time) float64 {
	if !c.Phases {
		return 1
	}
	if c.inWindow(now) {
		return c.WriteBiasIn
	}
	return c.WriteBiasOut
}

// thinkMean returns the mean think time at now (surge windows also raise
// the request rate: users act faster around auction closings).
func (c *ClientConfig) thinkMean(now sim.Time) sim.Time {
	if c.inWindow(now) {
		return c.ThinkTime.Scale(c.PhaseThinkFactor)
	}
	return c.ThinkTime
}

// session is one emulated user's state.
type session struct {
	id      int
	seq     int
	current RequestType
	started sim.Time
	pending bool
}

// Client emulates the RUBiS client workload generator: a fixed population
// of user sessions, each issuing a request, waiting for the response,
// thinking, and transitioning to the next request type. Completed sessions
// are immediately replaced, keeping the offered concurrency constant.
type Client struct {
	sim *sim.Simulator
	cfg ClientConfig
	x   *ixp.IXP
	rng *sim.Rand

	metrics  *Metrics
	sessions map[int]*session
	nextID   int
	pktID    uint64
	issued   uint64
	stopped  bool
}

// NewClient builds a client injecting at IXP x and registers itself as the
// wire's egress consumer. Call Start to begin issuing requests.
func NewClient(s *sim.Simulator, cfg ClientConfig, x *ixp.IXP) *Client {
	cfg.applyDefaults()
	c := &Client{
		sim:      s,
		cfg:      cfg,
		x:        x,
		rng:      s.Rand().Fork(),
		metrics:  NewMetrics(cfg.Warmup),
		sessions: make(map[int]*session),
	}
	x.ConnectWire(c.onResponse)
	return c
}

// Metrics returns the client-side measurements.
func (c *Client) Metrics() *Metrics { return c.metrics }

// Issued returns the number of requests sent.
func (c *Client) Issued() uint64 { return c.issued }

// ActiveSessions returns the number of sessions currently in flight.
func (c *Client) ActiveSessions() int { return len(c.sessions) }

// Start launches the session population, staggered over the first second to
// avoid a synchronized thundering herd.
func (c *Client) Start() {
	for i := 0; i < c.cfg.Sessions; i++ {
		delay := sim.Time(c.rng.Uniform(0, float64(sim.Second)))
		c.sim.After(delay, c.startSession)
	}
}

// Stop ceases issuing new requests (in-flight responses still drain).
func (c *Client) Stop() { c.stopped = true }

func (c *Client) startSession() {
	if c.stopped {
		return
	}
	s := &session{
		id:      c.nextID,
		current: c.cfg.Mix.First(c.rng),
		started: c.sim.Now(),
	}
	c.nextID++
	c.sessions[s.id] = s
	c.send(s)
}

// send issues the session's current request into the IXP.
func (c *Client) send(s *session) {
	s.pending = true
	c.pktID++
	c.issued++
	req := &Request{Type: s.current, Session: s.id, Seq: s.seq, SentAt: c.sim.Now()}
	prof := DefaultCatalog()[s.current]
	c.x.Receive(&netsim.Packet{
		ID:      c.pktID,
		Size:    prof.ReqBytes,
		DstVM:   c.cfg.WebVM,
		SrcVM:   -1,
		Class:   netsim.Class(s.current.String()),
		Payload: req,
		Created: c.sim.Now(),
	})
	if c.cfg.Timeout > 0 {
		seq := s.seq
		c.sim.After(c.cfg.Timeout, func() { c.abandon(s, seq, req.SentAt) })
	}
}

// abandon gives up on a page still unanswered at the timeout: the session
// moves on after a backoff, and the eventual response (the server is still
// working on it) will be discarded as stale.
func (c *Client) abandon(s *session, seq int, sentAt sim.Time) {
	if c.stopped {
		return
	}
	if cur, ok := c.sessions[s.id]; !ok || cur != s || !s.pending || s.seq != seq {
		return // answered (or shed) in time
	}
	s.pending = false
	if sentAt >= c.cfg.Warmup {
		c.metrics.RecordAbandon()
	}
	c.advance(s, true)
}

// onResponse consumes response packets leaving the IXP toward the wire.
// Only the final MTU segment of a response carries the request payload;
// earlier segments are plain data.
func (c *Client) onResponse(p *netsim.Packet) {
	req, ok := p.Payload.(*Request)
	if !ok {
		return
	}
	s, ok := c.sessions[req.Session]
	if !ok || !s.pending || s.seq != req.Seq {
		return // stale response from a session replaced after Stop/timeout
	}
	s.pending = false
	if req.Shed {
		// Admission-control rejection: the session saw a fast error page.
		// It still advances (real users give up on the page, not the
		// site), but nothing is added to the served-latency distributions.
		if req.SentAt >= c.cfg.Warmup {
			c.metrics.RecordShed()
		}
	} else if req.SentAt >= c.cfg.Warmup {
		c.metrics.RecordResponse(req.Type, c.sim.Now()-req.SentAt)
	}
	c.advance(s, req.Shed)
}

// advance moves the session to its next page (or replaces a completed
// session). backoff selects the shedBackoff pause instead of normal think
// time — used after sheds and abandonments.
func (c *Client) advance(s *session, backoff bool) {
	s.seq++
	if s.seq >= c.cfg.RequestsPerSession {
		if c.sim.Now() >= c.cfg.Warmup {
			c.metrics.RecordSession(c.sim.Now() - s.started)
		}
		delete(c.sessions, s.id)
		c.startSession()
		return
	}
	s.current = c.cfg.Mix.NextBiased(c.rng, s.current, c.cfg.writeBias(c.sim.Now()))
	mean := c.cfg.thinkMean(c.sim.Now())
	if backoff {
		mean = shedBackoff
	}
	think := c.rng.ExpTime(mean)
	c.sim.After(think, func() {
		if !c.stopped {
			c.send(s)
		}
	})
}
