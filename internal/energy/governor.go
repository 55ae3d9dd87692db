package energy

import (
	"repro/internal/flight"
	"repro/internal/sim"
)

// Governor modes. Off leaves both islands at their top operating points
// (the pre-energy behavior); Ondemand runs one latency-blind
// utilization governor per island (the uncoordinated ablation);
// Coordinated runs the QoS-constrained cross-island governor.
const (
	ModeOff         = "off"
	ModeOndemand    = "ondemand"
	ModeCoordinated = "coordinated"
)

// Ondemand thresholds, after the classic cpufreq governor: jump straight
// to the top point when local utilization exceeds OndemandUpUtil, creep
// one rung down when it falls below OndemandDownUtil. The gap between the
// two is hysteresis — once a load surge ratchets the island up, it stays
// up until the island goes nearly idle, which is exactly the conservatism
// a latency-blind governor needs and the coordinated governor avoids.
const (
	OndemandUpUtil   = 0.8
	OndemandDownUtil = 0.3
)

// Coordinated de-escalation guards. The IXP rung is utilization-guarded:
// only gate a pool when the remaining pools would stay under
// ixpDownSafeUtil. The x86 rung cannot be utilization-guarded — the
// workload is closed-loop, so a saturated island reads ~100% busy at every
// frequency and a util threshold would freeze it at the top point forever.
// Instead the x86 rung is patience-guarded: it steps down only after
// x86DownPatience consecutive slack windows, and a QoS violation resets the
// streak to -violationPenalty so a downshift that just bounced off the SLO
// is not retried until the platform has proven sustained slack again.
const (
	ixpDownSafeUtil  = 0.60
	x86DownPatience  = 5
	violationPenalty = 8
)

// headroom is the fraction of the QoS target below which the coordinated
// governor considers the platform to have latency slack worth converting
// into energy savings. The band between headroom*Target and Target is the
// hysteresis dead zone the governor settles into.
const headroom = 0.8

// boostCooldown is the minimum time between bottleneck boosts, so a long
// violation episode does not spray one Tune per control window.
const boostCooldown = sim.Second

// Ondemand is one island's local utilization governor: it senses nothing
// but its own island's utilization, so it cannot tell latency slack from
// latency pressure and must keep conservative headroom.
type Ondemand struct {
	m    *Machine
	util func() float64
}

// NewOndemand arms an ondemand governor over m, re-evaluating every
// period. util must return the island's utilization (0..1) over the
// window just ending.
func NewOndemand(s *sim.Simulator, m *Machine, period sim.Time, util func() float64) *Ondemand {
	g := &Ondemand{m: m, util: util}
	s.Ticker(period, g.tick)
	return g
}

func (g *Ondemand) tick() {
	u := g.util()
	switch {
	case u > OndemandUpUtil:
		g.m.SetIndex(len(g.m.Points()) - 1)
	case u < OndemandDownUtil:
		g.m.Step(-1)
	}
}

// CoordinatedConfig parameterizes the cross-island governor.
type CoordinatedConfig struct {
	// Target is the end-to-end p95 latency SLO; p95 above it is a QoS
	// violation and triggers escalation, and p95 below headroom*Target is
	// slack the governor converts into energy savings.
	Target sim.Time

	// X86 and IXP are sensed (ladder position, in-flight transitions)
	// but never actuated directly: actuation goes through the Tune
	// closures so every governor decision rides the coordination plane.
	X86 *Machine
	IXP *Machine

	// IXPUtil returns the IXP island's utilization over the window just
	// ending.
	IXPUtil func() float64

	// CapWatts, when positive, is a platform power cap the governor holds
	// before it weighs QoS; 0 disables it. X86Watts and IXPWatts return
	// each island's metered watts over the meter's last closed window.
	CapWatts float64
	X86Watts func() float64
	IXPWatts func() float64

	// TuneX86 and TuneIXP route a DVFS Tune (step delta) to the island's
	// DVFS agent through the global controller. TriggerX86 routes a Trigger
	// (jump to the top point) the same way: escalation is asymmetric —
	// violations jump the x86 island straight to its maximum, slack creeps
	// it down one rung at a time.
	TuneX86    func(delta int)
	TuneIXP    func(delta int)
	TriggerX86 func()

	// BoostBottleneck sends a credit-weight Tune to the tier the caller
	// judges to be the bottleneck — the escalation rung past "both
	// islands at top speed". May be nil.
	BoostBottleneck func()

	Recorder *flight.Recorder // QoS violation taps; may be nil
}

// Coordinated is the QoS-constrained energy governor: unlike the
// per-island ondemand pair it senses the platform-level latency SLO, so it
// can run the islands at the cheapest joint operating point that still
// meets p95 — and when p95 does slip, it escalates across islands in
// cost order (x86 frequency, then IXP pools, then a credit-weight Tune to
// the bottleneck tier) instead of over-provisioning everywhere. With a
// platform power cap set, holding the metered watts under the cap comes
// before QoS.
type Coordinated struct {
	cfg CoordinatedConfig
	sim *sim.Simulator

	violations int
	actions    int
	lastBoost  sim.Time
	slack      int // consecutive slack windows; negative after a violation
}

// NewCoordinated builds the coordinated governor. Step must then be called
// once per control window with the window's end-to-end p95.
func NewCoordinated(s *sim.Simulator, cfg CoordinatedConfig) *Coordinated {
	return &Coordinated{cfg: cfg, sim: s, lastBoost: -boostCooldown}
}

// SetBoostBottleneck installs the bottleneck-tier weight boost after
// construction (the application layer knows its tiers; the platform does
// not).
func (g *Coordinated) SetBoostBottleneck(fn func()) { g.cfg.BoostBottleneck = fn }

// Violations returns the number of control windows whose p95 exceeded the
// target.
func (g *Coordinated) Violations() int { return g.violations }

// Actions returns the number of actuations (DVFS steps and Tunes) taken.
func (g *Coordinated) Actions() int { return g.actions }

// Step runs one control decision for a window that observed n responses
// with the given p95. The power cap, when set, is checked first (see
// holdCap). Otherwise windows with no responses leave the platform
// untouched: an idle window is not evidence of slack under the SLO.
func (g *Coordinated) Step(p95 sim.Time, n int) {
	if g.cfg.CapWatts > 0 && g.holdCap(n) {
		return
	}
	if n == 0 {
		return
	}
	c := &g.cfg
	if p95 > c.Target {
		g.violations++
		g.slack = -violationPenalty
		if c.Recorder != nil {
			c.Recorder.Record(flight.Event{
				T: g.sim.Now(), Cat: flight.CatEnergy, Code: flight.EnergyQoS,
				Label: "governor", Entity: -1, Arg: int64(p95),
			})
		}
		g.escalate()
		return
	}
	if p95 < sim.Time(float64(c.Target)*headroom) {
		g.slack++
		g.deescalate()
	}
	// The dead zone between headroom*Target and Target neither builds nor
	// spends slack: it is evidence of equilibrium, not of room to cut.
}

// escalate applies the cheapest available speed-up: jump the x86 island
// back to its top frequency, then ungate an IXP pool, then boost the
// bottleneck tier's credit weight.
func (g *Coordinated) escalate() {
	c := &g.cfg
	if !c.X86.AtTop() && !c.X86.InFlight() {
		c.TriggerX86()
		g.actions++
		return
	}
	if !c.IXP.AtTop() && !c.IXP.InFlight() {
		c.TuneIXP(+1)
		g.actions++
		return
	}
	if c.BoostBottleneck != nil && g.sim.Now()-g.lastBoost >= boostCooldown {
		g.lastBoost = g.sim.Now()
		c.BoostBottleneck()
		g.actions++
	}
}

// deescalate converts latency slack into energy savings, gating the IXP
// (the cheaper, lower-risk rung, guarded by its projected utilization)
// before slowing the x86 island (guarded by sustained slack — see the
// patience constants for why utilization cannot guard a closed-loop
// island).
func (g *Coordinated) deescalate() {
	c := &g.cfg
	if !c.IXP.AtBottom() && !c.IXP.InFlight() {
		cur := c.IXP.Current().Level
		next := c.IXP.Points()[c.IXP.Index()-1].Level
		if c.IXPUtil()*float64(cur)/float64(next) < ixpDownSafeUtil {
			c.TuneIXP(-1)
			g.actions++
			return
		}
	}
	if g.slack >= x86DownPatience && !c.X86.AtBottom() && !c.X86.InFlight() {
		c.TuneX86(-1)
		g.actions++
		g.slack = 0 // re-prove slack at the new point before cutting again
	}
}

// holdCap enforces the platform power cap and reports whether it spent the
// window. Over the cap it steps one rung down — the x86 island first,
// where most of the watts are, and an IXP pool only once x86 sits at its
// bottom point — and skips QoS. Under the cap, a window with no responses
// restores one rung in the reverse order, but only when the draw projected
// from the operating-point table at the utilization the meter just
// measured still fits under the cap. A fixed restore headroom instead of
// the projection would let a saturated platform restore back over the cap
// and oscillate.
func (g *Coordinated) holdCap(n int) bool {
	c := &g.cfg
	xw, iw := c.X86Watts(), c.IXPWatts()
	if xw+iw > c.CapWatts {
		switch {
		case !c.X86.AtBottom():
			g.capTune(c.X86, c.TuneX86, -1)
		case !c.IXP.AtBottom():
			g.capTune(c.IXP, c.TuneIXP, -1)
		}
		return true
	}
	if n > 0 {
		return false
	}
	switch {
	case !c.IXP.AtTop():
		next := c.IXP.Points()[c.IXP.Index()+1]
		if xw+iw-c.IXP.Current().StaticW+next.StaticW <= c.CapWatts {
			g.capTune(c.IXP, c.TuneIXP, +1)
		}
	case !c.X86.AtTop():
		cur := c.X86.Current()
		next := c.X86.Points()[c.X86.Index()+1]
		u := 0.0
		if cur.DynW > 0 {
			u = (xw - cur.StaticW) / cur.DynW
		}
		if next.Watts(u)+iw <= c.CapWatts {
			g.capTune(c.X86, c.TuneX86, +1)
		}
	}
	return true
}

// capTune sends one cap rung change unless the island is mid-transition.
func (g *Coordinated) capTune(m *Machine, tune func(delta int), delta int) {
	if !m.InFlight() {
		tune(delta)
		g.actions++
	}
}
