package ixp

import "repro/internal/sim"

// The IXP2850's memory hierarchy (§2.1 of the paper): microengine local
// memory, a shared scratchpad, external SRAM (packet descriptor queues) and
// external DRAM (packet payload), with increasing access latencies at each
// level. Access latencies per level in microengine cycles (representative
// values from the IXP2xxx programmer documentation):
const (
	LocalMemCycles   = 3
	ScratchpadCycles = 60
	SRAMCycles       = 90
	DRAMCycles       = 120
)

// AccessProfile characterizes one packet-processing task's footprint: pure
// compute cycles plus per-level memory references, which together set one
// thread's per-packet service time.
type AccessProfile struct {
	ComputeCycles int
	LocalRefs     int
	ScratchRefs   int
	SRAMRefs      int
	DRAMRefs      int
}

// MemoryCycles returns the profile's total memory-stall cycles.
func (p AccessProfile) MemoryCycles() int {
	return p.LocalRefs*LocalMemCycles +
		p.ScratchRefs*ScratchpadCycles +
		p.SRAMRefs*SRAMCycles +
		p.DRAMRefs*DRAMCycles
}

// TotalCycles returns compute plus memory cycles — one thread's unshared
// per-packet latency.
func (p AccessProfile) TotalCycles() int { return p.ComputeCycles + p.MemoryCycles() }

// ServiceTime returns one thread's per-packet occupancy as simulated time.
func (p AccessProfile) ServiceTime() sim.Time { return Cycles(p.TotalCycles()) }

// Standard task profiles for the pipeline stages of Figure 3. The derived
// service times set the Config defaults.
var (
	// ClassifyProfile is deep packet inspection on the Rx path: header
	// parse plus payload probes (scratch flow table, SRAM descriptor,
	// DRAM payload reads).
	ClassifyProfile = AccessProfile{
		ComputeCycles: 800,
		LocalRefs:     16,
		ScratchRefs:   4,
		SRAMRefs:      6,
		DRAMRefs:      3,
	}
	// DequeueProfile is a weighted-scheduler thread moving one packet
	// descriptor from a flow queue to the PCI-Tx ring.
	DequeueProfile = AccessProfile{
		ComputeCycles: 280,
		LocalRefs:     8,
		ScratchRefs:   2,
		SRAMRefs:      4,
		DRAMRefs:      2,
	}
	// TxProfile transmits one packet to the wire.
	TxProfile = AccessProfile{
		ComputeCycles: 300,
		LocalRefs:     8,
		ScratchRefs:   2,
		SRAMRefs:      3,
		DRAMRefs:      2,
	}
)
