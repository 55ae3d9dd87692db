package power

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/xen"
)

// Target describes one throttleable entity: which island agent reaches it,
// which island name routes to it, and the Tune step used to throttle or
// restore it.
type Target struct {
	Island string // island name registered with the controller
	Entity int    // platform-wide entity ID
	Step   int    // throttle magnitude per control action (positive)
}

// BudgeterConfig tunes the platform power-cap controller.
type BudgeterConfig struct {
	CapWatts float64 // platform-level power budget
	Headroom float64 // restore when total < cap - headroom (default 5W)
}

// budgetPeriod is the Budgeter's control period.
const budgetPeriod = 500 * sim.Millisecond

func (c *BudgeterConfig) applyDefaults() {
	if c.Headroom == 0 {
		c.Headroom = 5
	}
}

// Budgeter is the platform power-cap coordination policy: it runs alongside
// the global controller, samples every island's metered power each period,
// and — strictly via Tune messages — throttles targets while the platform
// exceeds its cap and restores them while comfortably below it.
type Budgeter struct {
	sim      *sim.Simulator
	cfg      BudgeterConfig
	agent    *core.Agent
	readings []Reading
	// hv lets the budgeter pick the hottest x86 target (highest recent
	// utilization); nil disables utilization-aware victim selection.
	hv *xen.Hypervisor

	targets   []Target
	throttled map[Target]int // net throttle steps applied per target

	series   *Series
	stop     func()
	overCap  int // control periods spent above the cap
	actions  int // throttle/restore tunes sent
	lastBusy map[int]sim.Time
	lastAt   sim.Time
}

// NewBudgeter builds the policy. The agent must be able to route to every
// target's island (typically the controller-co-located agent).
func NewBudgeter(s *sim.Simulator, cfg BudgeterConfig, agent *core.Agent, hv *xen.Hypervisor, readings []Reading, targets []Target) *Budgeter {
	cfg.applyDefaults()
	if cfg.CapWatts <= 0 {
		panic(fmt.Sprintf("power: cap %v watts", cfg.CapWatts))
	}
	if agent == nil {
		panic("power: budgeter with nil agent")
	}
	if len(readings) == 0 || len(targets) == 0 {
		panic("power: budgeter needs readings and targets")
	}
	return &Budgeter{
		sim:       s,
		cfg:       cfg,
		agent:     agent,
		readings:  readings,
		hv:        hv,
		targets:   targets,
		throttled: make(map[Target]int),
		series:    newSeries(readings),
		lastBusy:  make(map[int]sim.Time),
	}
}

// Series returns the recorded power telemetry.
func (b *Budgeter) Series() *Series { return b.series }

// OverCapPeriods returns how many control periods measured above the cap.
func (b *Budgeter) OverCapPeriods() int { return b.overCap }

// Actions returns how many throttle/restore tunes were sent.
func (b *Budgeter) Actions() int { return b.actions }

// Throttled reports the net throttle steps currently applied to a target.
func (b *Budgeter) Throttled(t Target) int { return b.throttled[t] }

// Start arms the control loop; the returned function stops it.
func (b *Budgeter) Start() (stop func()) {
	b.stop = b.sim.Ticker(budgetPeriod, b.step)
	return b.stop
}

// step is one control period.
func (b *Budgeter) step() {
	now := b.sim.Now()
	sum, per := total(b.readings)
	b.series.Total.Add(now, sum)
	for name, w := range per {
		b.series.PerIsland[name].Add(now, w)
	}
	switch {
	case sum > b.cfg.CapWatts:
		b.overCap++
		b.throttleOne()
	case sum < b.cfg.CapWatts-b.cfg.Headroom:
		b.restoreOne()
	}
}

// throttleOne sends one throttle Tune to the most promising target: the
// x86 target with the highest recent utilization, or failing that, the
// first target with restore headroom.
func (b *Budgeter) throttleOne() {
	order := b.targetsByHeat()
	if len(order) == 0 {
		return
	}
	t := order[0]
	b.agent.SendTune(t.Island, t.Entity, -t.Step)
	b.throttled[t]++
	b.actions++
}

// restoreOne reverses the most recently throttled target one step.
func (b *Budgeter) restoreOne() {
	var victim *Target
	for i := range b.targets {
		t := b.targets[i]
		if b.throttled[t] > 0 && (victim == nil || b.throttled[t] > b.throttled[*victim]) {
			victim = &t
		}
	}
	if victim == nil {
		return
	}
	b.agent.SendTune(victim.Island, victim.Entity, +victim.Step)
	b.throttled[*victim]--
	b.actions++
}

// targetsByHeat orders targets by recent x86 utilization (descending);
// non-x86 targets keep their configured order after the x86 ones.
func (b *Budgeter) targetsByHeat() []Target {
	if b.hv == nil {
		return b.targets
	}
	now := b.sim.Now()
	window := now - b.lastAt
	heat := make(map[int]float64)
	for _, d := range b.hv.Domains() {
		b.hv.TotalUtilization(0, d)
		busy := d.Meter().Busy()
		if window > 0 {
			heat[d.ID()] = float64(busy-b.lastBusy[d.ID()]) / float64(window)
		}
		b.lastBusy[d.ID()] = busy
	}
	b.lastAt = now
	out := make([]Target, len(b.targets))
	copy(out, b.targets)
	sort.SliceStable(out, func(i, j int) bool {
		return heat[out[i].Entity] > heat[out[j].Entity]
	})
	return out
}
