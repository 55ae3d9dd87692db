package ixp

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// Pins for TestIXPScheduleExact and TestIXPIdleAllocs. They record the
// event-for-event behaviour of the poll-driven worker pools: a change that
// is meant to be a pure refactor must leave them untouched; a change that
// stops simulating idle polls lowers them on purpose.
const (
	exactFired      = 9674
	exactDeliveries = 938
	exactDigest     = 0x6bb09e54e098ce01
	idleAllocsMax   = 640
)

// TestIXPScheduleExact drives a fixed 20 ms schedule through every IXP
// queue — Rx classification, three VM flow queues and the Tx queue — with
// admission-gate bounces, the host gate toggling and one flow-thread
// resize, and pins the number of events fired and the (time, packet id)
// sequence of host and wire deliveries.
func TestIXPScheduleExact(t *testing.T) {
	s := sim.New(1)
	h := fnv.New64a()
	var buf [17]byte
	deliveries := 0
	record := func(dir byte, p *netsim.Packet) {
		buf[0] = dir
		binary.LittleEndian.PutUint64(buf[1:9], uint64(s.Now()))
		binary.LittleEndian.PutUint64(buf[9:17], p.ID)
		h.Write(buf[:])
		deliveries++
	}
	// Classification costs exactly one poll interval, so classifier
	// completions land on the instants the idle Tx workers poll at, and
	// the gate's bounces into the Tx queue make their relative order —
	// fixed by the spawn order — visible in the delivery sequence.
	x, _ := newTestIXP(s, Config{ClassifyCost: 50 * sim.Microsecond})
	x.SetAdmission(func(p *netsim.Packet) (*netsim.Packet, bool) {
		if p.ID%7 != 0 {
			return nil, true
		}
		return &netsim.Packet{ID: p.ID | 1<<32, Size: 64, DstVM: -1}, false
	})
	x.toHost = func(p *netsim.Packet) { record('h', p) }
	x.ConnectWire(func(p *netsim.Packet) { record('w', p) })
	gated := false
	x.ConnectHostGate(func() bool { return gated })
	for vm := 1; vm <= 3; vm++ {
		x.RegisterFlow(vm)
	}

	const horizon = 20 * sim.Millisecond
	id := uint64(0)
	for at := sim.Time(0); at < horizon-2*sim.Millisecond; at += 23 * sim.Microsecond {
		id++
		// Every 17th packet targets an unregistered VM (classifier drop).
		vm := int(id%3) + 1
		if id%17 == 0 {
			vm = 9
		}
		p := &netsim.Packet{ID: id, Size: 64 + int(id*131%1400), DstVM: vm}
		s.At(at, func() { x.Receive(p) })
	}
	// Host transmits start at 10 ms, so the idle Tx workers still poll on
	// the 50 us grid when the first bounce arrives.
	for at := 10*sim.Millisecond + 5*sim.Microsecond; at < horizon-2*sim.Millisecond; at += 41 * sim.Microsecond {
		id++
		p := &netsim.Packet{ID: id, Size: 64 + int(id*97%1400), SrcVM: int(id%3) + 1, DstVM: -1}
		s.At(at, func() { x.TransmitFromHost(p) })
	}
	for _, w := range [][2]sim.Time{{3 * sim.Millisecond, 6 * sim.Millisecond}, {11 * sim.Millisecond, 11500 * sim.Microsecond}} {
		s.At(w[0], func() { gated = true })
		s.At(w[1], func() { gated = false })
	}
	s.At(8*sim.Millisecond, func() {
		if err := x.SetFlowThreads(2, 5); err != nil {
			t.Error(err)
		}
	})
	s.RunUntil(horizon)

	if got := s.Fired(); got != exactFired {
		t.Errorf("Fired = %d, want %d", got, exactFired)
	}
	if deliveries != exactDeliveries {
		t.Errorf("deliveries = %d, want %d", deliveries, exactDeliveries)
	}
	if got := h.Sum64(); got != exactDigest {
		t.Errorf("delivery digest = %#x, want %#x", got, uint64(exactDigest))
	}
}

// TestIXPIdleAllocs bounds the allocations of one idle millisecond: every
// worker of every queue polls an empty queue.
func TestIXPIdleAllocs(t *testing.T) {
	s := sim.New(1)
	x, _ := newTestIXP(s, Config{})
	for vm := 1; vm <= 3; vm++ {
		x.RegisterFlow(vm)
	}
	s.RunUntil(sim.Millisecond)
	allocs := testing.AllocsPerRun(20, func() {
		s.RunUntil(s.Now() + sim.Millisecond)
	})
	if allocs > idleAllocsMax {
		t.Fatalf("idle millisecond allocated %.0f times, want <= %d", allocs, idleAllocsMax)
	}
}
