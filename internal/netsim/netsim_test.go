package netsim

import (
	"testing"

	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/xen"
)

func newHost(t *testing.T) (*sim.Simulator, *xen.Hypervisor, *HostStack) {
	t.Helper()
	s := sim.New(1)
	hv := xen.New(s, xen.Options{NumPCPUs: 2})
	dom0 := hv.CreateDomain("dom0", 256)
	hv.Start()
	tx := pcie.NewChannel(s, "host-ixp", pcie.Config{Latency: 10 * sim.Microsecond, Bandwidth: 1e9})
	hs := NewHostStack(s, dom0, tx, Config{})
	return s, hv, hs
}

func TestPacketValidate(t *testing.T) {
	var p *Packet
	if p.Validate() == nil {
		t.Fatal("nil packet validated")
	}
	if (&Packet{Size: 0}).Validate() == nil {
		t.Fatal("zero-size packet validated")
	}
	if (&Packet{Size: 100}).Validate() != nil {
		t.Fatal("valid packet rejected")
	}
}

func TestReceivePathChargesDom0AndDelivers(t *testing.T) {
	s, _, hs := newHost(t)
	var got []*Packet
	hs.Register(1, func(p *Packet) { got = append(got, p) })
	for i := uint64(0); i < 16; i++ {
		hs.DeliverFromIXP(&Packet{ID: i, Size: 1500, DstVM: 1})
	}
	s.RunUntil(100 * sim.Millisecond)
	if len(got) != 16 {
		t.Fatalf("delivered %d, want 16", len(got))
	}
	if hs.RxDelivered() != 16 {
		t.Fatalf("RxDelivered = %d", hs.RxDelivered())
	}
	if hs.Dom0().Meter().Busy() == 0 {
		t.Fatal("Dom0 charged no CPU for receive processing")
	}
	if hs.RxBacklog() != 0 {
		t.Fatalf("RxBacklog = %d", hs.RxBacklog())
	}
}

func TestReceiveInOrder(t *testing.T) {
	s, _, hs := newHost(t)
	var ids []uint64
	hs.Register(1, func(p *Packet) { ids = append(ids, p.ID) })
	for i := uint64(0); i < 50; i++ {
		hs.DeliverFromIXP(&Packet{ID: i, Size: 100, DstVM: 1})
	}
	s.RunUntil(time500ms())
	for i, id := range ids {
		if id != uint64(i) {
			t.Fatalf("out of order at %d: %d", i, id)
		}
	}
}

func time500ms() sim.Time { return 500 * sim.Millisecond }

func TestUnregisteredVMDropsCounted(t *testing.T) {
	s, _, hs := newHost(t)
	hs.DeliverFromIXP(&Packet{ID: 1, Size: 100, DstVM: 3})
	s.RunUntil(time500ms())
	if hs.RxDropped() != 1 {
		t.Fatalf("RxDropped = %d", hs.RxDropped())
	}
}

func TestTransmitPathReachesIXP(t *testing.T) {
	s, _, hs := newHost(t)
	var txed []*Packet
	hs.ConnectIXPTransmit(func(p *Packet) { txed = append(txed, p) })
	for i := uint64(0); i < 5; i++ {
		hs.Transmit(&Packet{ID: i, Size: 1000, SrcVM: 1, DstVM: -1})
	}
	s.RunUntil(time500ms())
	if len(txed) != 5 {
		t.Fatalf("IXP got %d packets", len(txed))
	}
	if hs.TxSent() != 5 {
		t.Fatalf("TxSent = %d", hs.TxSent())
	}
}

func TestTransmitWithoutIXPIsSafe(t *testing.T) {
	s, _, hs := newHost(t)
	hs.Transmit(&Packet{ID: 1, Size: 100, SrcVM: 1})
	s.RunUntil(time500ms())
	if hs.TxSent() != 1 {
		t.Fatalf("TxSent = %d", hs.TxSent())
	}
}

func TestRegisterNilHandlerPanics(t *testing.T) {
	_, _, hs := newHost(t)
	defer func() {
		if recover() == nil {
			t.Fatal("nil handler did not panic")
		}
	}()
	hs.Register(1, nil)
}

func TestInvalidPacketPanics(t *testing.T) {
	_, _, hs := newHost(t)
	for _, fn := range []func(){
		func() { hs.DeliverFromIXP(&Packet{Size: 0, DstVM: 1}) },
		func() { hs.Transmit(&Packet{Size: -5}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid packet did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestRxBatchingBoundsDom0Tasks(t *testing.T) {
	s, _, hs := newHost(t)
	hs.Register(1, func(*Packet) {})
	// 64 packets with batch size 8 should take ~8 Dom0 tasks, not 64.
	for i := uint64(0); i < 64; i++ {
		hs.DeliverFromIXP(&Packet{ID: i, Size: 100, DstVM: 1})
	}
	s.RunUntil(time500ms())
	tasks := hs.Dom0().TasksCompleted()
	if tasks > 10 {
		t.Fatalf("Dom0 ran %d rx tasks for 64 packets with batch 8", tasks)
	}
	if hs.RxDelivered() != 64 {
		t.Fatalf("RxDelivered = %d", hs.RxDelivered())
	}
}

func TestDom0ContentionDelaysDelivery(t *testing.T) {
	// When Dom0 is starved, receive processing should stall — this is the
	// cross-island dependence the paper's coordination exploits.
	s := sim.New(1)
	hv := xen.New(s, xen.Options{NumPCPUs: 1})
	dom0 := hv.CreateDomain("dom0", 256)
	hog := hv.CreateDomain("hog", 25600)
	hv.Start()
	tx := pcie.NewChannel(s, "host-ixp", pcie.Config{})
	hs := NewHostStack(s, dom0, tx, Config{RxCostPerPacket: 1 * sim.Millisecond, RxBatch: 1})
	delivered := 0
	hs.Register(1, func(*Packet) { delivered++ })
	// Saturate the hog so Dom0 gets only its fair share.
	var churn func()
	churn = func() { hog.SubmitFunc(5*sim.Millisecond, "hog", churn) }
	churn()
	for i := uint64(0); i < 1000; i++ {
		hs.DeliverFromIXP(&Packet{ID: i, Size: 100, DstVM: 1})
	}
	s.RunUntil(1 * sim.Second)
	if delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if delivered >= 900 {
		t.Fatalf("delivered %d of 1000 despite Dom0 starvation; expected backlog", delivered)
	}
	if hs.RxBacklog() == 0 {
		t.Fatal("expected receive backlog under Dom0 contention")
	}
}

func TestPollingDriverBurnsDom0(t *testing.T) {
	s, hv, hs := newHost(t)
	stop := hs.StartPollingDriver(2*sim.Millisecond, 1*sim.Millisecond)
	s.RunUntil(2 * sim.Second)
	hv.TotalUtilization(0, hs.Dom0())
	util := hs.Dom0().Meter().MeanUtilization(0, s.Now())
	if util < 40 || util > 60 {
		t.Fatalf("polling driver utilization = %.1f%%, want ~50", util)
	}
	stop()
	before := hs.Dom0().Meter().Busy()
	s.RunUntil(3 * sim.Second)
	hv.TotalUtilization(0, hs.Dom0())
	// At most one in-flight poll completes after stop.
	if extra := hs.Dom0().Meter().Busy() - before; extra > 2*sim.Millisecond {
		t.Fatalf("poller still burning after stop: %v", extra)
	}
}

func TestPollingDriverDoesNotPileUpWhenStarved(t *testing.T) {
	// One PCPU fully occupied by a higher-weight hog: the poller must skip
	// polls rather than queue unbounded demand.
	s := sim.New(1)
	hv := xen.New(s, xen.Options{NumPCPUs: 1})
	dom0 := hv.CreateDomain("dom0", 64)
	hog := hv.CreateDomain("hog", 6400)
	hv.Start()
	var churn func()
	churn = func() { hog.SubmitFunc(5*sim.Millisecond, "hog", churn) }
	churn()
	tx := pcie.NewChannel(s, "t", pcie.Config{})
	hs := NewHostStack(s, dom0, tx, Config{})
	hs.StartPollingDriver(2*sim.Millisecond, 1*sim.Millisecond)
	s.RunUntil(2 * sim.Second)
	if q := dom0.QueueLen(); q > 1 {
		t.Fatalf("poll tasks piled up: queue=%d", q)
	}
}

func TestPollingDriverValidation(t *testing.T) {
	_, _, hs := newHost(t)
	for _, fn := range []func(){
		func() { hs.StartPollingDriver(0, sim.Millisecond) },
		func() { hs.StartPollingDriver(sim.Millisecond, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid polling driver accepted")
				}
			}()
			fn()
		}()
	}
}

func TestRingCapacityAndBackpressure(t *testing.T) {
	s, _, hs := newHost(t)
	hs.SetRingCapacity(4)
	if hs.RingFull() {
		t.Fatal("empty ring reports full")
	}
	// A bounded handler that rejects everything wedges the ring head.
	hs.RegisterBounded(1, func(*Packet) bool { return false })
	for i := uint64(0); i < 6; i++ {
		hs.DeliverFromIXP(&Packet{ID: i, Size: 100, DstVM: 1})
	}
	s.RunUntil(50 * sim.Millisecond)
	if !hs.RingFull() {
		t.Fatalf("ring not full: backlog=%d", hs.RxBacklog())
	}
	if hs.Retries() == 0 {
		t.Fatal("no retries recorded")
	}
	if hs.RxDelivered() != 0 {
		t.Fatal("rejected packets counted as delivered")
	}
}

func TestBoundedHandlerAcceptanceDrains(t *testing.T) {
	s, _, hs := newHost(t)
	accept := false
	var got int
	hs.RegisterBounded(1, func(*Packet) bool {
		if accept {
			got++
			return true
		}
		return false
	})
	for i := uint64(0); i < 10; i++ {
		hs.DeliverFromIXP(&Packet{ID: i, Size: 100, DstVM: 1})
	}
	s.RunUntil(20 * sim.Millisecond)
	if got != 0 {
		t.Fatal("packets delivered while rejecting")
	}
	accept = true
	s.RunUntil(200 * sim.Millisecond)
	if got != 10 {
		t.Fatalf("delivered %d after acceptance, want 10", got)
	}
	if hs.RxBacklog() != 0 {
		t.Fatalf("backlog = %d after drain", hs.RxBacklog())
	}
}

func TestRegisterBoundedValidation(t *testing.T) {
	_, _, hs := newHost(t)
	for _, fn := range []func(){
		func() { hs.RegisterBounded(1, nil) },
		func() { hs.SetRingCapacity(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid call accepted")
				}
			}()
			fn()
		}()
	}
}

func TestInterruptModerationBatches(t *testing.T) {
	s := sim.New(1)
	hv := xen.New(s, xen.Options{NumPCPUs: 2})
	dom0 := hv.CreateDomain("dom0", 256)
	hv.Start()
	tx := pcie.NewChannel(s, "t", pcie.Config{})
	hs := NewHostStack(s, dom0, tx, Config{IntrPeriod: 10 * sim.Millisecond})
	var deliveredAt []sim.Time
	hs.Register(1, func(*Packet) { deliveredAt = append(deliveredAt, s.Now()) })
	// Packets arriving mid-period wait for the interrupt.
	for i := uint64(0); i < 5; i++ {
		i := i
		s.At(sim.Time(i)*sim.Millisecond, func() {
			hs.DeliverFromIXP(&Packet{ID: i, Size: 100, DstVM: 1})
		})
	}
	s.RunUntil(9 * sim.Millisecond)
	if len(deliveredAt) != 0 {
		t.Fatalf("%d packets delivered before the interrupt", len(deliveredAt))
	}
	if hs.Staged() != 5 {
		t.Fatalf("Staged = %d", hs.Staged())
	}
	s.RunUntil(50 * sim.Millisecond)
	if len(deliveredAt) != 5 {
		t.Fatalf("delivered %d, want 5", len(deliveredAt))
	}
	// All five arrived in one interrupt service.
	if hs.Interrupts() != 1 {
		t.Fatalf("Interrupts = %d, want 1 (coalesced)", hs.Interrupts())
	}
	if deliveredAt[0] < 10*sim.Millisecond {
		t.Fatalf("first delivery at %v, before interrupt", deliveredAt[0])
	}
}

func TestInterruptModerationSkipsEmptyPeriods(t *testing.T) {
	s := sim.New(1)
	hv := xen.New(s, xen.Options{NumPCPUs: 1})
	dom0 := hv.CreateDomain("dom0", 256)
	hv.Start()
	tx := pcie.NewChannel(s, "t", pcie.Config{})
	hs := NewHostStack(s, dom0, tx, Config{IntrPeriod: 5 * sim.Millisecond})
	s.RunUntil(1 * sim.Second)
	if hs.Interrupts() != 0 {
		t.Fatalf("raised %d interrupts with no traffic", hs.Interrupts())
	}
}

func TestModerationCountsTowardRingFull(t *testing.T) {
	s := sim.New(1)
	hv := xen.New(s, xen.Options{NumPCPUs: 1})
	dom0 := hv.CreateDomain("dom0", 256)
	hv.Start()
	tx := pcie.NewChannel(s, "t", pcie.Config{})
	hs := NewHostStack(s, dom0, tx, Config{IntrPeriod: sim.Second})
	hs.SetRingCapacity(3)
	for i := uint64(0); i < 3; i++ {
		hs.DeliverFromIXP(&Packet{ID: i, Size: 100, DstVM: 1})
	}
	if !hs.RingFull() {
		t.Fatal("staged packets not counted toward ring capacity")
	}
}
