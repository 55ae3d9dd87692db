// Package power implements the paper's second motivating use case and its
// stated future work (§1.2, §5): coordinated platform-level power
// management across scheduling islands.
//
// Caps on total platform power cannot be enforced per island in isolation —
// slowing one island's cores can ruin the performance of application
// components on another, and an island acting alone cannot know how much of
// the budget the rest of the platform consumes. The Budgeter below is a
// coordination policy built from the same Tune mechanism as the CPU
// schemes: a platform controller samples per-island metered power and sends
// throttle/restore Tunes to per-island power actuators (CPU caps on the
// Xen island, dequeue-thread deallocation on the IXP island).
package power

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/xen"
)

// Reading is one island's power draw in watts, read from the energy
// subsystem's integrating meter: cap enforcement then sees the same
// modeled watts the energy ledgers integrate, with no second sampling path
// that could disagree with the joules report. The closure keeps this
// package free of an energy dependency.
type Reading struct {
	Name  string
	Watts func() float64
}

// CapActuator applies power Tunes on the Xen island: the Tune value is a
// CPU-cap adjustment in percentage points for the entity (negative =
// throttle). A cap of 0 means uncapped; the actuator materializes it as
// 100% before adjusting, and never throttles below MinCap.
type CapActuator struct {
	ctl    *xen.Ctl
	MinCap int // default 20 (percent of one CPU)
}

// NewCapActuator wraps a XenCtrl interface.
func NewCapActuator(ctl *xen.Ctl) *CapActuator {
	return &CapActuator{ctl: ctl, MinCap: 20}
}

// ApplyTune adjusts the entity's CPU cap by delta percentage points.
func (a *CapActuator) ApplyTune(entity, delta int) error {
	cur, err := a.capOf(entity)
	if err != nil {
		return err
	}
	next := cur + delta
	if next < a.MinCap {
		next = a.MinCap
	}
	if next >= 100 {
		next = 0 // fully restored: uncap
	}
	return a.ctl.SetCap(entity, next)
}

// ApplyTrigger removes the entity's cap immediately (emergency restore,
// e.g. an SLA violation signal from another island).
func (a *CapActuator) ApplyTrigger(entity int) error {
	return a.ctl.SetCap(entity, 0)
}

// capOf reads the entity's effective cap (100 when uncapped).
func (a *CapActuator) capOf(entity int) (int, error) {
	d, err := a.domain(entity)
	if err != nil {
		return 0, err
	}
	if d.Cap() == 0 {
		return 100, nil
	}
	return d.Cap(), nil
}

func (a *CapActuator) domain(entity int) (*xen.Domain, error) {
	for _, d := range a.ctlDomains() {
		if d.ID() == entity {
			return d, nil
		}
	}
	return nil, fmt.Errorf("power: no domain %d", entity)
}

// ctlDomains exposes the hypervisor's domains through the control surface.
func (a *CapActuator) ctlDomains() []*xen.Domain { return a.ctl.Domains() }

// total sums the readings.
func total(readings []Reading) (float64, map[string]float64) {
	sum := 0.0
	per := make(map[string]float64, len(readings))
	for _, r := range readings {
		w := r.Watts()
		per[r.Name] = w
		sum += w
	}
	return sum, per
}

// Series bundles the Budgeter's recorded telemetry.
type Series struct {
	Total     *stats.TimeSeries
	PerIsland map[string]*stats.TimeSeries
}

func newSeries(readings []Reading) *Series {
	s := &Series{
		Total:     stats.NewTimeSeries("power-total"),
		PerIsland: make(map[string]*stats.TimeSeries, len(readings)),
	}
	for _, r := range readings {
		s.PerIsland[r.Name] = stats.NewTimeSeries("power-" + r.Name)
	}
	return s
}
