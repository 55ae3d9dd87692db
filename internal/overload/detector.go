package overload

import "repro/internal/sim"

// DetectorConfig parameterizes an overload Detector.
type DetectorConfig struct {
	// Alpha is the EWMA weight of each new sample (default 0.1).
	Alpha float64
	// Threshold is the smoothed queue delay above which the detector
	// declares overload (default 1s). Once overloaded, the detector
	// recovers only when the smoothed delay falls below the hysteresis
	// floor Threshold/2.
	Threshold sim.Time
}

func (c *DetectorConfig) applyDefaults() {
	if c.Alpha <= 0 {
		c.Alpha = 0.1
	}
	if c.Threshold <= 0 {
		c.Threshold = sim.Second
	}
}

// DetectorStats counts a detector's observations.
type DetectorStats struct {
	Samples  uint64 // delay samples observed
	Episodes uint64 // healthy -> overloaded transitions
}

// Detector is an EWMA-smoothed overload detector keyed off queue delay.
// It is pure state — no events, no RNG — updated inline from the queue's
// delay hook, with hysteresis so a single slow request does not flap the
// coordination plane.
type Detector struct {
	cfg        DetectorConfig
	ewma       float64 // smoothed delay, nanoseconds
	primed     bool    // first sample seeds the EWMA directly
	overloaded bool
	stats      DetectorStats

	// OnChange, when set, observes every overload transition.
	OnChange func(overloaded bool)
}

// NewDetector builds a detector.
func NewDetector(cfg DetectorConfig) *Detector {
	cfg.applyDefaults()
	return &Detector{cfg: cfg}
}

// Sample folds one queueing delay into the smoothed estimate and updates
// the overload verdict.
func (d *Detector) Sample(delay sim.Time) {
	d.stats.Samples++
	x := float64(delay)
	if !d.primed {
		d.primed = true
		d.ewma = x
	} else {
		d.ewma += d.cfg.Alpha * (x - d.ewma)
	}
	switch {
	case !d.overloaded && d.ewma > float64(d.cfg.Threshold):
		d.overloaded = true
		d.stats.Episodes++
		if d.OnChange != nil {
			d.OnChange(true)
		}
	case d.overloaded && d.ewma < float64(d.cfg.Threshold/2):
		d.overloaded = false
		if d.OnChange != nil {
			d.OnChange(false)
		}
	}
}

// Overloaded reports the detector's current verdict.
func (d *Detector) Overloaded() bool { return d.overloaded }

// Smoothed returns the current EWMA queue delay.
func (d *Detector) Smoothed() sim.Time { return sim.Time(d.ewma) }

// Stats returns a snapshot of the detector's counters.
func (d *Detector) Stats() DetectorStats { return d.stats }
