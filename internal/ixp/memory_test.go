package ixp

import (
	"testing"

	"repro/internal/sim"
)

func TestAccessProfileCycles(t *testing.T) {
	p := AccessProfile{ComputeCycles: 100, LocalRefs: 2, ScratchRefs: 1, SRAMRefs: 1, DRAMRefs: 1}
	wantMem := 2*LocalMemCycles + ScratchpadCycles + SRAMCycles + DRAMCycles
	if got := p.MemoryCycles(); got != wantMem {
		t.Fatalf("MemoryCycles = %d, want %d", got, wantMem)
	}
	if got := p.TotalCycles(); got != 100+wantMem {
		t.Fatalf("TotalCycles = %d", got)
	}
	if got := p.ServiceTime(); got != Cycles(100+wantMem) {
		t.Fatalf("ServiceTime = %v", got)
	}
}

func TestStandardProfilesValid(t *testing.T) {
	for name, p := range map[string]AccessProfile{
		"classify": ClassifyProfile,
		"dequeue":  DequeueProfile,
		"tx":       TxProfile,
	} {
		// Stage service times stay in the sub-2us band the pipeline was
		// calibrated against.
		if st := p.ServiceTime(); st < 200*sim.Nanosecond || st > 2*sim.Microsecond {
			t.Errorf("%s service time = %v out of band", name, st)
		}
	}
	// DPI is the most expensive stage.
	if ClassifyProfile.TotalCycles() <= DequeueProfile.TotalCycles() {
		t.Error("classification should cost more than dequeue")
	}
}
