// Package repro is the public API of a full reproduction of "A Case for
// Coordinated Resource Management in Heterogeneous Multicore Platforms"
// (Tembey, Gavrilovska, Schwan — WIOSCA/ISCA 2010).
//
// The paper's prototype — an x86 host virtualized by Xen, coupled over PCIe
// to an IXP2850 network processor, with a coordination layer (Tune and
// Trigger mechanisms) between the two islands' resource managers — is
// reproduced as a deterministic discrete-event simulation. This package
// exposes the experiment runners that regenerate every table and figure of
// the paper's evaluation, plus the ablations and extensions described in
// DESIGN.md.
//
// The building blocks live in internal packages:
//
//   - internal/sim: the discrete-event kernel
//   - internal/xen: the credit-scheduler x86 island
//   - internal/ixp: the IXP2850 network-processor island
//   - internal/pcie, internal/netsim: interconnect and host network path
//   - internal/core: the coordination mechanisms and policies (the paper's
//     contribution)
//   - internal/platform: the assembled two-island testbed
//   - internal/rubis, internal/mplayer: the two benchmark workloads
//   - internal/energy: DVFS, the energy meter and the coordinated
//     governor, which also holds the platform power cap
//
// All runners are pure functions of their configuration: the same seed
// always yields the same numbers.
package repro

import (
	"time"

	"repro/internal/rubis"
	"repro/internal/sim"
)

// CoordScheme names a RUBiS coordination policy variant.
type CoordScheme string

// Available RUBiS coordination schemes.
const (
	// SchemeOutstanding tracks each tier's outstanding profiled demand from
	// both traffic directions (the default coord-ixp-dom0 scheme).
	SchemeOutstanding CoordScheme = "outstanding"
	// SchemeLoadTrack tracks offered load only (ablation).
	SchemeLoadTrack CoordScheme = "loadtrack"
	// SchemeClass is the paper's literal fixed-delta read/write rule
	// (ablation).
	SchemeClass CoordScheme = "class"
)

func (s CoordScheme) internal() rubis.Scheme {
	switch s {
	case SchemeClass:
		return rubis.SchemeClass
	case SchemeLoadTrack:
		return rubis.SchemeLoadTrack
	default:
		return rubis.SchemeOutstanding
	}
}

// toSim converts a time.Duration into the simulator's time unit.
func toSim(d time.Duration) sim.Time { return sim.FromDuration(d) }
