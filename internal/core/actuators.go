package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/energy"
	"repro/internal/ixp"
	"repro/internal/sim"
	"repro/internal/xen"
)

// X86Actuator applies coordination messages to the Xen island: Tune deltas
// become credit-weight adjustments through the XenCtrl interface, Triggers
// become runqueue boosts. Weights are clamped to [MinWeight, MaxWeight] so
// runaway policies cannot starve or monopolize the host.
//
// The paper leaves the translation of a Tune's "+/- numerical value" to the
// receiving island ("translated into corresponding weight or priority
// adjustments, depending on the remote island's scheduling algorithm",
// §3.3). Two translations are provided:
//
//   - direct (default): the delta is added to the weight, clamped;
//   - load-tracking (EnableLoadTracking): deltas accumulate into a
//     per-entity boost mass that decays exponentially, and the weight is
//     MinWeight + mass. With the IXP sending demand-scaled deltas, each
//     VM's weight then tracks its recently *offered* load with an interior
//     equilibrium instead of banging into the clamps — the translation the
//     RUBiS coordination scheme uses.
type X86Actuator struct {
	ctl       *xen.Ctl
	MinWeight int // default 64
	MaxWeight int // default 4096

	baselines map[int]int
	reverts   uint64

	tracking  bool
	mass      map[int]float64
	stopDecay func()

	surgeSim    *sim.Simulator
	surgeFactor float64
	surgeHold   sim.Time
	surges      map[int]*surgeState
}

// surgeState tracks one entity's in-flight trigger surge.
type surgeState struct {
	preWeight int
	expire    *sim.Event
}

// NewX86Actuator wraps a XenCtrl interface with default clamps.
func NewX86Actuator(ctl *xen.Ctl) *X86Actuator {
	return &X86Actuator{ctl: ctl, MinWeight: 64, MaxWeight: 4096, baselines: make(map[int]int)}
}

// SetBaseline records entity's safe-harbor weight, the value
// RevertToBaseline restores when the coordination plane is lost. The
// platform records each guest's initial weight here at registration.
func (x *X86Actuator) SetBaseline(entity, weight int) {
	x.baselines[entity] = weight
}

// RevertToBaseline abandons all coordination-derived state — in-flight
// trigger surges and accumulated boost mass — and restores every entity
// with a recorded baseline to that weight. The graceful-degradation path
// calls it after the hold-down timer: stale policy decisions must not
// outlive the uplink that justified them.
func (x *X86Actuator) RevertToBaseline() {
	x.reverts++
	ids := make([]int, 0, len(x.baselines))
	for e := range x.baselines {
		ids = append(ids, e)
	}
	sort.Ints(ids)
	for _, e := range ids {
		if st, ok := x.surges[e]; ok {
			st.expire.Cancel()
			delete(x.surges, e)
		}
		if x.tracking {
			x.mass[e] = 0
		}
		_ = x.ctl.SetWeight(e, x.baselines[e]) // unknown entities are a no-op
	}
}

// Reverts returns how many times RevertToBaseline ran.
func (x *X86Actuator) Reverts() uint64 { return x.reverts }

// Baselines returns the recorded safe-harbor weights sorted by entity ID —
// the checkpoint provider for controller failover (a promoted controller
// must know the same baselines so a later degradation still reverts
// correctly).
func (x *X86Actuator) Baselines() []BaselineSnapshot {
	ids := make([]int, 0, len(x.baselines))
	for e := range x.baselines {
		ids = append(ids, e)
	}
	sort.Ints(ids)
	out := make([]BaselineSnapshot, 0, len(ids))
	for _, e := range ids {
		out = append(out, BaselineSnapshot{Entity: e, Weight: x.baselines[e]})
	}
	return out
}

// EnableLoadTracking switches the actuator to the load-tracking
// translation: every period, each entity's accumulated boost mass decays
// with time constant tau, and its weight is recomputed as MinWeight + mass.
// It returns a stop function cancelling the decay timer.
func (x *X86Actuator) EnableLoadTracking(s *sim.Simulator, tau, period sim.Time) (stop func()) {
	if tau <= 0 || period <= 0 {
		panic(fmt.Sprintf("core: load tracking needs positive tau (%v) and period (%v)", tau, period))
	}
	x.tracking = true
	x.mass = make(map[int]float64)
	factor := math.Exp(-float64(period) / float64(tau))
	x.stopDecay = s.Ticker(period, func() {
		ids := make([]int, 0, len(x.mass))
		for e := range x.mass {
			ids = append(ids, e)
		}
		sort.Ints(ids)
		for _, e := range ids {
			x.mass[e] *= factor
			x.applyMass(e)
		}
	})
	return x.stopDecay
}

// applyMass recomputes and installs the weight for entity e.
func (x *X86Actuator) applyMass(e int) {
	w := x.MinWeight + int(x.mass[e]+0.5)
	if w > x.MaxWeight {
		w = x.MaxWeight
	}
	_ = x.ctl.SetWeight(e, w) // entity validity was checked on first tune
}

// ApplyTune adjusts the domain's credit weight by delta, clamped (direct
// mode), or folds delta into the entity's decaying boost mass
// (load-tracking mode).
func (x *X86Actuator) ApplyTune(entity, delta int) error {
	if !x.tracking {
		_, err := x.ctl.AdjustWeight(entity, delta, x.MinWeight, x.MaxWeight)
		return err
	}
	if _, err := x.ctl.Weight(entity); err != nil {
		return err
	}
	m := x.mass[entity] + float64(delta)
	if m < 0 {
		m = 0
	}
	x.mass[entity] = m
	x.applyMass(entity)
	return nil
}

// EnableTriggerSurge strengthens the Trigger translation: in addition to
// the runqueue boost, the entity's weight is multiplied by factor for hold
// (repeated triggers extend the surge rather than stacking). This is the
// "as soon as possible" semantics of §3.3 sustained across an overload
// episode — each Figure 7 trigger produces a visible CPU-utilization spike.
func (x *X86Actuator) EnableTriggerSurge(s *sim.Simulator, factor float64, hold sim.Time) {
	if factor < 1 || hold <= 0 {
		panic(fmt.Sprintf("core: trigger surge factor %v hold %v", factor, hold))
	}
	x.surgeSim = s
	x.surgeFactor = factor
	x.surgeHold = hold
	x.surges = make(map[int]*surgeState)
}

// ApplyTrigger boosts the domain (preemptive semantics), plus the
// weight surge when enabled.
func (x *X86Actuator) ApplyTrigger(entity int) error {
	if err := x.ctl.Boost(entity); err != nil {
		return err
	}
	if x.surgeSim == nil {
		return nil
	}
	if st, ok := x.surges[entity]; ok {
		// Already surging: extend the elevated period.
		st.expire.Cancel()
		st.expire = x.surgeSim.After(x.surgeHold, func() { x.endSurge(entity) })
		return nil
	}
	w, err := x.ctl.Weight(entity)
	if err != nil {
		return err
	}
	surged := int(float64(w)*x.surgeFactor + 0.5)
	if surged > x.MaxWeight {
		surged = x.MaxWeight
	}
	if err := x.ctl.SetWeight(entity, surged); err != nil {
		return err
	}
	st := &surgeState{preWeight: w}
	st.expire = x.surgeSim.After(x.surgeHold, func() { x.endSurge(entity) })
	x.surges[entity] = st
	return nil
}

// endSurge restores the entity's pre-surge weight.
func (x *X86Actuator) endSurge(entity int) {
	st, ok := x.surges[entity]
	if !ok {
		return
	}
	delete(x.surges, entity)
	_ = x.ctl.SetWeight(entity, st.preWeight)
}

// IXPPollActuator is the alternative IXP-side Tune translation the paper
// names for I/O schedulers ("poll time adjustments"): each positive Tune
// unit shortens the flow's dequeue-thread polling interval by 20%, each
// negative unit lengthens it, clamped to [MinInterval, MaxInterval].
type IXPPollActuator struct {
	x *ixp.IXP
	// Interval clamps (defaults 5us and 5ms).
	MinInterval, MaxInterval sim.Time
}

// NewIXPPollActuator wraps an IXP with default clamps.
func NewIXPPollActuator(x *ixp.IXP) *IXPPollActuator {
	return &IXPPollActuator{x: x, MinInterval: 5 * sim.Microsecond, MaxInterval: 5 * sim.Millisecond}
}

// ApplyTune rescales the flow's polling interval by 0.8 per positive unit
// (1/0.8 per negative unit).
func (a *IXPPollActuator) ApplyTune(entity, delta int) error {
	cur := a.x.FlowPollInterval(entity)
	if cur == 0 {
		return fmt.Errorf("core: no IXP flow for entity %d", entity)
	}
	next := cur
	for i := 0; i < delta && next > a.MinInterval; i++ {
		next = next.Scale(0.8)
	}
	for i := 0; i > delta && next < a.MaxInterval; i-- {
		next = next.Scale(1.25)
	}
	if next < a.MinInterval {
		next = a.MinInterval
	}
	if next > a.MaxInterval {
		next = a.MaxInterval
	}
	return a.x.SetFlowPollInterval(entity, next)
}

// ApplyTrigger drops the flow's polling interval to the minimum (poll as
// fast as the hardware allows, ASAP semantics).
func (a *IXPPollActuator) ApplyTrigger(entity int) error {
	if a.x.FlowPollInterval(entity) == 0 {
		return fmt.Errorf("core: no IXP flow for entity %d", entity)
	}
	return a.x.SetFlowPollInterval(entity, a.MinInterval)
}

// IXPActuator applies coordination messages to the IXP island: Tune deltas
// become dequeue-thread allocation changes for the entity's flow queue;
// Triggers temporarily over-provision the flow's threads.
type IXPActuator struct {
	x   *ixp.IXP
	sim *sim.Simulator

	// TriggerExtraThreads and TriggerHold configure the transient thread
	// boost a Trigger grants (defaults: +2 threads for 100ms).
	TriggerExtraThreads int
	TriggerHold         sim.Time

	pendingRestore map[int]bool

	shedControl func(entity, delta int) error
}

// NewIXPActuator wraps an IXP with default trigger behaviour.
func NewIXPActuator(s *sim.Simulator, x *ixp.IXP) *IXPActuator {
	return &IXPActuator{
		x:                   x,
		sim:                 s,
		TriggerExtraThreads: 2,
		TriggerHold:         100 * sim.Millisecond,
		pendingRestore:      make(map[int]bool),
	}
}

// ApplyTune changes the flow's dequeue-thread count by delta (minimum 1).
func (a *IXPActuator) ApplyTune(entity, delta int) error {
	cur := a.x.FlowThreads(entity)
	if cur == 0 {
		return fmt.Errorf("core: no IXP flow for entity %d", entity)
	}
	n := cur + delta
	if n < 1 {
		n = 1
	}
	return a.x.SetFlowThreads(entity, n)
}

// ApplyTrigger temporarily raises the flow's thread allocation, restoring
// it after TriggerHold. Overlapping triggers extend the elevated period
// rather than stacking allocations.
func (a *IXPActuator) ApplyTrigger(entity int) error {
	cur := a.x.FlowThreads(entity)
	if cur == 0 {
		return fmt.Errorf("core: no IXP flow for entity %d", entity)
	}
	if a.pendingRestore[entity] {
		return nil // already elevated
	}
	if err := a.x.SetFlowThreads(entity, cur+a.TriggerExtraThreads); err != nil {
		return err
	}
	a.pendingRestore[entity] = true
	a.sim.After(a.TriggerHold, func() {
		delete(a.pendingRestore, entity)
		now := a.x.FlowThreads(entity)
		n := now - a.TriggerExtraThreads
		if n < 1 {
			n = 1
		}
		// Best effort; the flow may have been retuned meanwhile.
		_ = a.x.SetFlowThreads(entity, n)
	})
	return nil
}

// DVFSActuator extends the Tune vocabulary to island operating points: a
// Tune delta steps the island's DVFS ladder that many rungs (positive =
// faster / more pools ungated, negative = slower / more gated), and a
// Trigger jumps straight to the top point (the "as soon as possible"
// semantics of §3.3 applied to frequency). The actuator is addressed
// through an island-wide synthetic entity, since an operating point is a
// property of the island, not of any one guest; the entity argument is
// therefore ignored.
//
// Requests are best-effort by design: a step that lands while a voltage
// ramp is still in flight is dropped, not queued, so a burst of Tunes
// cannot build a backlog of stale frequency decisions.
type DVFSActuator struct {
	m *energy.Machine
}

// NewDVFSActuator wraps an island's DVFS state machine.
func NewDVFSActuator(m *energy.Machine) *DVFSActuator { return &DVFSActuator{m: m} }

// ApplyTune steps the island's operating point by delta rungs, clamped to
// the table ends. Dropped requests (transition in flight, already at the
// clamp) are not errors.
func (a *DVFSActuator) ApplyTune(entity, delta int) error {
	a.m.Step(delta)
	return nil
}

// ApplyTrigger jumps the island to its top operating point.
func (a *DVFSActuator) ApplyTrigger(entity int) error {
	a.m.SetIndex(len(a.m.Points()) - 1)
	return nil
}

// SetShedControl installs the early-admission hook ApplyShed delegates to
// (the application wires it to its per-class shedder; the actuator itself
// stays traffic-agnostic). Nil uninstalls it.
func (a *IXPActuator) SetShedControl(fn func(entity, delta int) error) { a.shedControl = fn }

// ApplyShed adjusts the IXP-side admission shed rate for the entity's
// traffic (ShedActuator). Without an installed shed control the
// adjustment is rejected.
func (a *IXPActuator) ApplyShed(entity, delta int) error {
	if a.shedControl == nil {
		return fmt.Errorf("core: IXP actuator has no shed control for entity %d", entity)
	}
	return a.shedControl(entity, delta)
}
