package xen

import (
	"fmt"

	"repro/internal/flight"
)

// Ctl is the hypervisor's management interface, standing in for the
// user-space "XenCtrl interface" hosted by Dom0 in the paper: it tunes
// credit-scheduler behavior and adjusts processor allocation of guest VMs.
// The coordination layer's x86-island agent drives it in response to Tune
// and Trigger messages from remote islands.
type Ctl struct {
	hv  *Hypervisor
	rec *flight.Recorder
}

// NewCtl returns a control interface for hv.
func NewCtl(hv *Hypervisor) *Ctl { return &Ctl{hv: hv} }

// SetFlightRecorder taps effective weight changes and boosts into the
// flight recorder (nil disables).
func (c *Ctl) SetFlightRecorder(r *flight.Recorder) { c.rec = r }

// recordWeight records one effective credit-weight change.
func (c *Ctl) recordWeight(d *Domain, weight int) {
	if c.rec != nil {
		c.rec.Record(flight.Event{
			T: c.hv.sim.Now(), Cat: flight.CatWeight,
			Label: d.Name(), Entity: int32(d.ID()), Arg: int64(weight),
		})
	}
}

// Weight returns the current credit weight of domain id.
func (c *Ctl) Weight(id int) (int, error) {
	d, err := c.domain(id)
	if err != nil {
		return 0, err
	}
	return d.weight, nil
}

// SetWeight sets the credit weight of domain id. The new weight takes
// effect at the next accounting period, exactly as with the real tool.
func (c *Ctl) SetWeight(id, weight int) error {
	if weight <= 0 {
		return fmt.Errorf("xen: invalid weight %d for domain %d", weight, id)
	}
	d, err := c.domain(id)
	if err != nil {
		return err
	}
	if d.weight != weight {
		d.weight = weight
		c.recordWeight(d, weight)
	}
	return nil
}

// AdjustWeight changes the weight of domain id by delta, clamped to
// [min, max]. It returns the new weight. This is the natural target of the
// paper's "weight increase"/"weight decrease" Tune messages. A clamp range
// that would admit a weight SetWeight rejects (min < 1, or min > max) is an
// error.
func (c *Ctl) AdjustWeight(id, delta, min, max int) (int, error) {
	if min < 1 || min > max {
		return 0, fmt.Errorf("xen: invalid weight clamp [%d, %d] for domain %d", min, max, id)
	}
	d, err := c.domain(id)
	if err != nil {
		return 0, err
	}
	w := d.weight + delta
	if w < min {
		w = min
	}
	if w > max {
		w = max
	}
	if d.weight != w {
		d.weight = w
		c.recordWeight(d, w)
	}
	return w, nil
}

// FrequencyMHz returns the island's current DVFS operating frequency.
func (c *Ctl) FrequencyMHz() int { return c.hv.FrequencyMHz() }

// SetFrequencyMHz commits an island-wide DVFS operating frequency (the
// xenpm set-scaling-speed equivalent) and taps the transition into the
// flight recorder. In-progress run intervals are charged at the old
// frequency before the new retirement rate takes effect.
func (c *Ctl) SetFrequencyMHz(mhz int) error {
	prev := c.hv.FrequencyMHz()
	if err := c.hv.setFrequency(mhz); err != nil {
		return err
	}
	if c.rec != nil && mhz != prev {
		c.rec.Record(flight.Event{
			T: c.hv.sim.Now(), Cat: flight.CatEnergy, Code: flight.EnergyFreq,
			Label: "x86", Entity: -1, Arg: int64(mhz),
		})
	}
	return nil
}

// Boost immediately raises domain id to BOOST priority (the Trigger
// mechanism's actuation on the x86 island).
func (c *Ctl) Boost(id int) error {
	d, err := c.domain(id)
	if err != nil {
		return err
	}
	if c.rec != nil {
		c.rec.Record(flight.Event{
			T: c.hv.sim.Now(), Cat: flight.CatBoost,
			Label: d.Name(), Entity: int32(d.ID()),
		})
	}
	c.hv.Boost(d)
	return nil
}

// Domains lists the hypervisor's domains (Dom0 first).
func (c *Ctl) Domains() []*Domain { return c.hv.domains }

func (c *Ctl) domain(id int) (*Domain, error) {
	if id < 0 || id >= len(c.hv.domains) {
		return nil, fmt.Errorf("xen: no domain %d", id)
	}
	return c.hv.domains[id], nil
}
