// Package energy makes platform energy a first-class coordinated resource,
// extending the paper's coordination argument (§1.2, §5) along the axis of
// Nejat et al.'s QoS-constrained energy management: frequency states are
// traded against other actuators under a latency SLO.
//
// The package supplies three pieces:
//
//   - per-island DVFS state machines (Machine): discrete operating points —
//     frequency/voltage pairs on the Xen x86 island, clock-gated
//     microengine pools on the IXP island — with transition latencies and
//     exact per-state residency accounting;
//   - a deterministic energy model (Meter): per island,
//     P = P_static(f,V) + P_dyn(f,V)*utilization, integrated over simulated
//     time into integer-nanojoule ledgers whose island sums equal the
//     platform ledger exactly (the conservation invariant the chaos
//     oracles pin);
//   - governor policies: a coordinated governor that senses cross-island
//     QoS (windowed p95 latency, queue depths) and jointly picks DVFS
//     points, IXP pool gating, and credit-weight Tunes to minimize platform
//     energy subject to the latency constraint — and per-island
//     ondemand-style governors (the uncoordinated ablation) that see only
//     local utilization and therefore must hold conservative headroom.
//
// Like every other coordination policy in the tree, all decisions are pure
// functions of the configuration and seed, and every operating-point
// transition is tapped into the flight recorder at its actuation site
// (xen.Ctl.SetFrequencyMHz, ixp.SetActivePools).
package energy

import (
	"fmt"

	"repro/internal/ixp"
	"repro/internal/sim"
	"repro/internal/xen"
)

// OperatingPoint is one discrete DVFS state of an island.
type OperatingPoint struct {
	Name  string
	Level int // island-specific magnitude: core MHz on x86, active ME pools on IXP

	// Voltage is relative to the island's nominal supply (1.0 at the top
	// point). Static and dynamic power both scale with its square.
	Voltage float64

	StaticW float64 // draw at zero utilization in this state
	DynW    float64 // additional draw at 100% utilization in this state

	Latency sim.Time // time to commit a transition into this state
}

// Watts returns the modeled island power at the given utilization (0..1).
func (p OperatingPoint) Watts(util float64) float64 {
	if util < 0 {
		util = 0
	}
	if util > 1 {
		util = 1
	}
	return p.StaticW + p.DynW*util
}

// Nominal envelope of the x86 island: 60W idle to 140W with every core busy
// at the top operating point.
const (
	x86IdleWatts = 60.0
	x86BusyWatts = 140.0
)

// IXP island power decomposition. With every pool active the static floor
// is ixpFixedWatts + NumMEPools*ixpPoolWatts = 18W; each allocated hardware thread adds ixpThreadWatts on top.
const (
	ixpFixedWatts  = 6.0
	ixpPoolWatts   = 3.0
	ixpThreadWatts = 0.4
)

// DefaultX86Latency and DefaultIXPLatency are the transition latencies of
// the two islands' state machines: a voltage ramp on the host, a clock-gate
// settle on the network processor.
const (
	DefaultX86Latency = 60 * sim.Microsecond
	DefaultIXPLatency = 20 * sim.Microsecond
)

// x86Steps are the default P-state grid of the 2.66 GHz Xeon host.
var x86Steps = []struct {
	mhz     int
	voltage float64
}{
	{1333, 0.850},
	{1666, 0.900},
	{2000, 0.925},
	{2333, 0.950},
	{xen.MaxFreqMHz, 1.000},
}

// X86Point derives one x86 operating point from a frequency/voltage pair:
// static power follows V^2 (leakage), dynamic power follows f*V^2, both
// anchored so the top point reproduces the island's nominal 60W/140W
// envelope at the host's xen.MaxFreqMHz.
func X86Point(mhz int, voltage float64) OperatingPoint {
	fRatio := float64(mhz) / float64(xen.MaxFreqMHz)
	v2 := voltage * voltage
	return OperatingPoint{
		Name:    fmt.Sprintf("%dMHz", mhz),
		Level:   mhz,
		Voltage: voltage,
		StaticW: x86IdleWatts * v2,
		DynW:    (x86BusyWatts - x86IdleWatts) * fRatio * v2,
		Latency: DefaultX86Latency,
	}
}

// DefaultX86Table returns the x86 island's operating points, lowest
// frequency first. The top point's power model is exactly the nominal
// 60W/140W envelope.
func DefaultX86Table() []OperatingPoint {
	pts := make([]OperatingPoint, 0, len(x86Steps))
	for _, s := range x86Steps {
		pts = append(pts, X86Point(s.mhz, s.voltage))
	}
	return pts
}

// IXPPoint derives the operating point with n active microengine pools.
// StaticW covers the fixed logic plus the ungated pools; the thread term is
// added by the meter from the live allocation.
func IXPPoint(n int) OperatingPoint {
	return OperatingPoint{
		Name:    fmt.Sprintf("pools-%d", n),
		Level:   n,
		Voltage: 1.0,
		StaticW: ixpFixedWatts + ixpPoolWatts*float64(n),
		Latency: DefaultIXPLatency,
	}
}

// DefaultIXPTable returns the IXP island's gating states, most-gated first.
// With every pool active the static floor is the island's nominal 18W.
func DefaultIXPTable() []OperatingPoint {
	pts := make([]OperatingPoint, 0, ixp.NumMEPools)
	for n := 1; n <= ixp.NumMEPools; n++ {
		pts = append(pts, IXPPoint(n))
	}
	return pts
}

// IXPThreadWatts returns the per-thread dynamic term of the IXP model.
func IXPThreadWatts(threads int) float64 { return ixpThreadWatts * float64(threads) }

// ValidateTable checks an operating-point table: at least one point,
// strictly increasing levels, positive power terms, non-negative latencies.
func ValidateTable(island string, pts []OperatingPoint) error {
	if len(pts) == 0 {
		return fmt.Errorf("energy: %s table is empty", island)
	}
	for i, p := range pts {
		if p.Level <= 0 {
			return fmt.Errorf("energy: %s point %d has non-positive level %d", island, i, p.Level)
		}
		if i > 0 && pts[i-1].Level >= p.Level {
			return fmt.Errorf("energy: %s table levels not strictly increasing at point %d", island, i)
		}
		if p.StaticW < 0 || p.DynW < 0 {
			return fmt.Errorf("energy: %s point %d has negative power terms", island, i)
		}
		if p.Latency < 0 {
			return fmt.Errorf("energy: %s point %d has negative latency", island, i)
		}
	}
	return nil
}
