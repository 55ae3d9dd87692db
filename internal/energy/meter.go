package energy

import (
	"fmt"

	"repro/internal/sim"
)

// IslandSource feeds one island's modeled power into the meter. Watts is
// sampled once per accrual window and must return the island's average
// power over the window just closing (the platform wires it to the island's
// committed operating point and a delta-busy utilization estimate).
type IslandSource struct {
	Name  string
	Watts func() float64
}

type meterIsland struct {
	IslandSource
	nj    int64 // accrued nanojoules
	lastW float64
}

// Meter integrates modeled island power over simulated time. Energy is
// accounted in integer nanojoules (1 W·ns = 1 nJ): each window charges
// int64(watts*dt) to the island ledger and adds the same increment to the
// platform ledger, so the island ledgers sum to the platform ledger exactly
// — the conservation invariant the chaos oracles check. A 130 s run at
// ~200 W accrues ~2.6e13 nJ, comfortably inside int64.
type Meter struct {
	sim     *sim.Simulator
	period  sim.Time
	islands []*meterIsland
	byName  map[string]*meterIsland

	platformNJ int64
	lastAt     sim.Time
}

// NewMeter builds a meter over the given sources and arms its accrual
// ticker (period must be positive).
func NewMeter(s *sim.Simulator, period sim.Time, sources []IslandSource) *Meter {
	m := &Meter{
		sim:    s,
		period: period,
		byName: make(map[string]*meterIsland, len(sources)),
		lastAt: s.Now(),
	}
	for _, src := range sources {
		mi := &meterIsland{IslandSource: src}
		m.islands = append(m.islands, mi)
		m.byName[src.Name] = mi
	}
	s.Ticker(period, m.accrue)
	return m
}

// Period returns the accrual window length.
func (m *Meter) Period() sim.Time { return m.period }

// accrue closes the window [lastAt, now): it samples each island's average
// watts over the window and charges watts·dt nanojoules.
func (m *Meter) accrue() {
	now := m.sim.Now()
	dt := now - m.lastAt
	if dt <= 0 {
		return
	}
	for _, mi := range m.islands {
		w := mi.Watts()
		mi.lastW = w
		inc := int64(w * float64(dt))
		mi.nj += inc
		m.platformNJ += inc
	}
	m.lastAt = now
}

// Flush closes the final (possibly partial) accrual window. Call it once
// after the run's last event so the ledgers cover the full duration.
func (m *Meter) Flush() { m.accrue() }

// Watts returns the named island's average power over the last closed
// window (piecewise-constant between accruals); the coordinated governor's
// power cap samples this instead of keeping its own model.
func (m *Meter) Watts(island string) float64 {
	mi, ok := m.byName[island]
	if !ok {
		return 0
	}
	return mi.lastW
}

// PlatformWatts returns the platform power over the last closed window.
func (m *Meter) PlatformWatts() float64 {
	var w float64
	for _, mi := range m.islands {
		w += mi.lastW
	}
	return w
}

// IslandNJ returns the named island's accrued nanojoules.
func (m *Meter) IslandNJ(island string) (int64, error) {
	mi, ok := m.byName[island]
	if !ok {
		return 0, fmt.Errorf("energy: meter has no island %q", island)
	}
	return mi.nj, nil
}

// PlatformNJ returns the platform ledger in nanojoules.
func (m *Meter) PlatformNJ() int64 { return m.platformNJ }

// Snapshot captures every ledger at the current instant (per-island plus
// platform, keyed by island name and "platform"). Subtracting a warmup
// snapshot from an end-of-run snapshot yields measurement-window joules.
func (m *Meter) Snapshot() map[string]int64 {
	out := make(map[string]int64, len(m.islands)+1)
	for _, mi := range m.islands {
		out[mi.Name] = mi.nj
	}
	out["platform"] = m.platformNJ
	return out
}

// Joules converts a nanojoule ledger value to joules.
func Joules(nj int64) float64 { return float64(nj) / 1e9 }
