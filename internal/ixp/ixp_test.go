package ixp

import (
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/pcie"
	"repro/internal/sim"
)

// newTestIXP wires an IXP whose host deliveries append to a slice.
func newTestIXP(s *sim.Simulator, cfg Config) (*IXP, *[]*netsim.Packet) {
	var got []*netsim.Packet
	ch := pcie.NewChannel(s, "ixp-host", pcie.Config{Latency: sim.Microsecond, Bandwidth: 1e9})
	x := New(s, cfg, ch, func(p *netsim.Packet) { got = append(got, p) })
	return x, &got
}

func pkt(id uint64, vm, size int) *netsim.Packet {
	return &netsim.Packet{ID: id, Size: size, DstVM: vm}
}

func TestCycles(t *testing.T) {
	if got := Cycles(1400); got != sim.Microsecond {
		t.Fatalf("Cycles(1400) = %v, want 1us at 1.4GHz", got)
	}
}

func TestThreadBudgetConstant(t *testing.T) {
	if MaxSchedulableThreads != 112 {
		t.Fatalf("MaxSchedulableThreads = %d, want (16-2)*8 = 112", MaxSchedulableThreads)
	}
}

func TestReceiveDeliversToHost(t *testing.T) {
	s := sim.New(1)
	x, got := newTestIXP(s, Config{})
	x.RegisterFlow(1)
	x.Receive(pkt(1, 1, 1500))
	s.RunUntil(10 * sim.Millisecond)
	if len(*got) != 1 || (*got)[0].ID != 1 {
		t.Fatalf("delivered = %v", *got)
	}
	if x.RxSeen() != 1 || x.RxDropped() != 0 {
		t.Fatalf("counters = %d seen, %d dropped", x.RxSeen(), x.RxDropped())
	}
}

func TestReceiveUnknownVMDropped(t *testing.T) {
	s := sim.New(1)
	x, got := newTestIXP(s, Config{})
	x.Receive(pkt(1, 9, 1500))
	s.RunUntil(10 * sim.Millisecond)
	if len(*got) != 0 {
		t.Fatal("packet for unregistered VM delivered")
	}
	if x.RxDropped() != 1 {
		t.Fatalf("RxDropped = %d", x.RxDropped())
	}
}

func TestDPIRunsAndClassifies(t *testing.T) {
	s := sim.New(1)
	x, got := newTestIXP(s, Config{})
	x.RegisterFlow(1)
	x.AddDPI(func(p *netsim.Packet) { p.Class = "classified" })
	x.Receive(pkt(1, 1, 100))
	s.RunUntil(10 * sim.Millisecond)
	if len(*got) != 1 || (*got)[0].Class != "classified" {
		t.Fatalf("DPI did not run: %+v", *got)
	}
}

func TestFIFOWithinFlow(t *testing.T) {
	s := sim.New(1)
	x, got := newTestIXP(s, Config{ThreadsPerFlow: 1})
	x.RegisterFlow(1)
	for i := uint64(1); i <= 20; i++ {
		x.Receive(pkt(i, 1, 200))
	}
	s.RunUntil(100 * sim.Millisecond)
	if len(*got) != 20 {
		t.Fatalf("delivered %d packets", len(*got))
	}
	for i, p := range *got {
		if p.ID != uint64(i+1) {
			t.Fatalf("out of order at %d: %d", i, p.ID)
		}
	}
}

func TestBufferOverflowDrops(t *testing.T) {
	s := sim.New(1)
	x, _ := newTestIXP(s, Config{BufferBytes: 3000, ThreadsPerFlow: 1, PollInterval: sim.Second})
	q := x.RegisterFlow(1)
	// Workers poll every simulated second, so these all sit in the buffer.
	for i := uint64(0); i < 5; i++ {
		x.Receive(pkt(i, 1, 1000))
	}
	s.RunUntil(10 * sim.Millisecond)
	if q.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2 (3000B capacity, 5x1000B)", q.Dropped())
	}
	if q.Bytes() != 3000 {
		t.Fatalf("Bytes = %d, want 3000", q.Bytes())
	}
	if x.RxDropped() != 2 {
		t.Fatalf("IXP RxDropped = %d", x.RxDropped())
	}
}

func TestMoreThreadsMoreThroughput(t *testing.T) {
	// With a slow per-packet dequeue cost, doubling threads should roughly
	// double flow throughput — the paper's IXP-side bandwidth knob.
	run := func(threads int) int {
		s := sim.New(1)
		x, got := newTestIXP(s, Config{
			DequeueCost:    100 * sim.Microsecond,
			ThreadsPerFlow: threads,
			BufferBytes:    10 << 20,
			RxRingBytes:    10 << 20,
		})
		x.RegisterFlow(1)
		for i := uint64(0); i < 1000; i++ {
			x.Receive(pkt(i, 1, 1000))
		}
		s.RunUntil(20 * sim.Millisecond)
		return len(*got)
	}
	one, four := run(1), run(4)
	if four < 3*one {
		t.Fatalf("threads=1 delivered %d, threads=4 delivered %d; want ~4x", one, four)
	}
}

func TestSetFlowThreadsValidation(t *testing.T) {
	s := sim.New(1)
	x, _ := newTestIXP(s, Config{})
	x.RegisterFlow(1)
	if err := x.SetFlowThreads(9, 2); err == nil {
		t.Fatal("unknown flow accepted")
	}
	if err := x.SetFlowThreads(1, 0); err == nil {
		t.Fatal("zero threads accepted")
	}
	if err := x.SetFlowThreads(1, MaxSchedulableThreads+1); err == nil {
		t.Fatal("budget overflow accepted")
	}
	if err := x.SetFlowThreads(1, 8); err != nil {
		t.Fatalf("valid SetFlowThreads failed: %v", err)
	}
	if got := x.FlowThreads(1); got != 8 {
		t.Fatalf("FlowThreads = %d", got)
	}
	if x.FlowThreads(9) != 0 {
		t.Fatal("FlowThreads for unknown VM != 0")
	}
}

func TestThreadBudgetAccounting(t *testing.T) {
	s := sim.New(1)
	x, _ := newTestIXP(s, Config{ThreadsPerFlow: 2})
	base := x.ThreadsAllocated() // tx threads
	x.RegisterFlow(1)
	x.RegisterFlow(2)
	if got := x.ThreadsAllocated(); got != base+4 {
		t.Fatalf("ThreadsAllocated = %d, want %d", got, base+4)
	}
	if err := x.SetFlowThreads(1, 6); err != nil {
		t.Fatal(err)
	}
	if got := x.ThreadsAllocated(); got != base+8 {
		t.Fatalf("ThreadsAllocated after grow = %d, want %d", got, base+8)
	}
	if err := x.SetFlowThreads(1, 1); err != nil {
		t.Fatal(err)
	}
	if got := x.ThreadsAllocated(); got != base+3 {
		t.Fatalf("ThreadsAllocated after shrink = %d, want %d", got, base+3)
	}
}

// TestMEMapCapacity fills the microengine pool across several flows to
// exactly (NumMicroengines-reservedMEs)*ThreadsPerME threads, checks that
// one more thread on any flow is refused, and that shrinking every flow
// hands the threads back.
func TestMEMapCapacity(t *testing.T) {
	s := sim.New(1)
	x, _ := newTestIXP(s, Config{ThreadsPerFlow: 1})
	boot := x.ThreadsAllocated()
	const flows = 4
	for vm := 1; vm <= flows; vm++ {
		x.RegisterFlow(vm)
	}
	free := MaxSchedulableThreads - boot
	for vm := 1; vm <= flows; vm++ {
		n := free / flows
		if vm == flows {
			n = free - (flows-1)*(free/flows)
		}
		if err := x.SetFlowThreads(vm, n); err != nil {
			t.Fatalf("flow %d to %d threads: %v", vm, n, err)
		}
	}
	if got := x.ThreadsAllocated(); got != (NumMicroengines-reservedMEs)*ThreadsPerME {
		t.Fatalf("ThreadsAllocated = %d at full pool", got)
	}
	for vm := 1; vm <= flows; vm++ {
		if err := x.SetFlowThreads(vm, x.FlowThreads(vm)+1); err == nil {
			t.Fatalf("flow %d: overflow accepted", vm)
		}
	}
	for vm := 1; vm <= flows; vm++ {
		if err := x.SetFlowThreads(vm, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := x.ThreadsAllocated(); got != boot+flows {
		t.Fatalf("ThreadsAllocated = %d after release, want %d", got, boot+flows)
	}
}

func TestShrinkThenGrowThreadsNoDuplicateWorkers(t *testing.T) {
	s := sim.New(1)
	x, got := newTestIXP(s, Config{
		DequeueCost:    100 * sim.Microsecond,
		ThreadsPerFlow: 4,
		BufferBytes:    10 << 20,
		RxRingBytes:    10 << 20,
	})
	x.RegisterFlow(1)
	// Shrink and immediately regrow while workers are mid-flight.
	s.At(1*sim.Millisecond, func() {
		if err := x.SetFlowThreads(1, 1); err != nil {
			t.Error(err)
		}
	})
	s.At(1100*sim.Microsecond, func() {
		if err := x.SetFlowThreads(1, 4); err != nil {
			t.Error(err)
		}
	})
	for i := uint64(0); i < 2000; i++ {
		x.Receive(pkt(i, 1, 500))
	}
	s.RunUntil(60 * sim.Millisecond)
	// All packets delivered exactly once.
	if len(*got) != 2000 {
		t.Fatalf("delivered %d packets, want 2000", len(*got))
	}
	seen := make(map[uint64]bool)
	for _, p := range *got {
		if seen[p.ID] {
			t.Fatalf("packet %d delivered twice", p.ID)
		}
		seen[p.ID] = true
	}
}

func TestDuplicateFlowRegistrationPanics(t *testing.T) {
	s := sim.New(1)
	x, _ := newTestIXP(s, Config{})
	x.RegisterFlow(1)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate RegisterFlow did not panic")
		}
	}()
	x.RegisterFlow(1)
}

func TestTransmitPath(t *testing.T) {
	s := sim.New(1)
	x, _ := newTestIXP(s, Config{})
	var wire []*netsim.Packet
	x.ConnectWire(func(p *netsim.Packet) { wire = append(wire, p) })
	for i := uint64(0); i < 10; i++ {
		x.TransmitFromHost(&netsim.Packet{ID: i, Size: 1000, SrcVM: 1, DstVM: -1})
	}
	s.RunUntil(10 * sim.Millisecond)
	if len(wire) != 10 {
		t.Fatalf("wire got %d packets", len(wire))
	}
	if x.TxSeen() != 10 {
		t.Fatalf("TxSeen = %d", x.TxSeen())
	}
}

func TestHighWatermarkEdgeTriggered(t *testing.T) {
	s := sim.New(1)
	x, _ := newTestIXP(s, Config{
		ThreadsPerFlow: 1,
		DequeueCost:    1 * sim.Millisecond, // slow drain
		BufferBytes:    1 << 20,
	})
	q := x.RegisterFlow(1)
	var fires []int
	q.SetHighWatermark(2500, func(b int) { fires = append(fires, b) })
	for i := uint64(0); i < 5; i++ {
		x.Receive(pkt(i, 1, 1000))
	}
	s.RunUntil(1 * sim.Millisecond)
	if len(fires) != 1 {
		t.Fatalf("watermark fired %d times while above threshold, want 1 (edge)", len(fires))
	}
	if fires[0] < 2500 {
		t.Fatalf("fired at %d bytes", fires[0])
	}
	// Drain below the mark, then refill: should fire again.
	s.RunUntil(20 * sim.Millisecond)
	if q.Bytes() != 0 {
		t.Fatalf("queue not drained: %d bytes", q.Bytes())
	}
	for i := uint64(10); i < 15; i++ {
		x.Receive(pkt(i, 1, 1000))
	}
	s.RunUntil(21 * sim.Millisecond)
	if len(fires) != 2 {
		t.Fatalf("watermark fired %d times after refill, want 2", len(fires))
	}
}

func TestQueueAccessors(t *testing.T) {
	s := sim.New(1)
	x, _ := newTestIXP(s, Config{ThreadsPerFlow: 3, BufferBytes: 4096, PollInterval: sim.Second})
	q := x.RegisterFlow(7)
	if q.VM() != 7 || q.Capacity() != 4096 || q.Threads() != 3 {
		t.Fatalf("accessors: vm=%d cap=%d threads=%d", q.VM(), q.Capacity(), q.Threads())
	}
	x.Receive(pkt(1, 7, 100))
	s.RunUntil(100 * sim.Microsecond)
	if q.Len() != 1 || q.Bytes() != 100 || q.Enqueued() != 1 {
		t.Fatalf("queue state: len=%d bytes=%d enq=%d", q.Len(), q.Bytes(), q.Enqueued())
	}
	if q.MaxBytes() != 100 {
		t.Fatalf("MaxBytes = %d", q.MaxBytes())
	}
	if x.Flow(7) != q || x.Flow(8) != nil {
		t.Fatal("Flow lookup wrong")
	}
	if len(x.Flows()) != 1 || x.Flows()[0] != 7 {
		t.Fatalf("Flows() = %v", x.Flows())
	}
}

func TestXScaleStreamState(t *testing.T) {
	s := sim.New(1)
	x, _ := newTestIXP(s, Config{})
	c := x.XScale()
	if c.IXP() != x {
		t.Fatal("XScale.IXP() wrong")
	}
	if _, ok := c.Stream(1); ok {
		t.Fatal("ghost stream state")
	}
	c.RecordStream(StreamState{VMID: 1, BitrateBn: 1e6, FrameRate: 25})
	st, ok := c.Stream(1)
	if !ok || st.FrameRate != 25 {
		t.Fatalf("stream state = %+v, %v", st, ok)
	}
	c.ClearStream(1)
	if _, ok := c.Stream(1); ok {
		t.Fatal("stream state not cleared")
	}
}

func TestXScaleBufferMonitor(t *testing.T) {
	s := sim.New(1)
	x, _ := newTestIXP(s, Config{ThreadsPerFlow: 1, PollInterval: sim.Second})
	x.RegisterFlow(1)
	var samples []int
	stop := x.XScale().MonitorBuffers(10*sim.Millisecond, func(vm, bytes int) {
		if vm == 1 {
			samples = append(samples, bytes)
		}
	})
	x.Receive(pkt(1, 1, 5000))
	s.RunUntil(35 * sim.Millisecond)
	stop()
	s.RunUntil(100 * sim.Millisecond)
	if len(samples) != 3 {
		t.Fatalf("got %d samples, want 3 before stop", len(samples))
	}
	if samples[0] != 5000 {
		t.Fatalf("first sample = %d", samples[0])
	}
}

func TestXScaleShutdownStopsMonitors(t *testing.T) {
	s := sim.New(1)
	x, _ := newTestIXP(s, Config{})
	x.RegisterFlow(1)
	count := 0
	x.XScale().MonitorBuffers(10*sim.Millisecond, func(int, int) { count++ })
	s.RunUntil(25 * sim.Millisecond)
	x.XScale().Shutdown()
	before := count
	s.RunUntil(200 * sim.Millisecond)
	if count != before {
		t.Fatalf("monitor still running after Shutdown: %d -> %d", before, count)
	}
}

func TestInvalidPacketPanics(t *testing.T) {
	s := sim.New(1)
	x, _ := newTestIXP(s, Config{})
	x.RegisterFlow(1)
	defer func() {
		if recover() == nil {
			t.Fatal("invalid packet did not panic")
		}
	}()
	x.Receive(&netsim.Packet{ID: 1, Size: 0, DstVM: 1})
}

func TestClassifierStageBounds(t *testing.T) {
	// Slow classification: the fixed classifier pool caps throughput at
	// about one packet per thread per ClassifyCost.
	s := sim.New(1)
	x, got := newTestIXP(s, Config{
		ClassifyCost: 1 * sim.Millisecond,
		RxRingBytes:  10 << 20,
		BufferBytes:  10 << 20,
	})
	x.RegisterFlow(1)
	for i := uint64(0); i < 400; i++ {
		x.Receive(pkt(i, 1, 500))
	}
	s.RunUntil(20 * sim.Millisecond)
	// ~20 packets per thread in 20ms at 1ms each.
	if n := len(*got); n < 15*classifierThreads || n > 25*classifierThreads {
		t.Fatalf("%d classifier threads delivered %d in 20ms, want ~%d",
			classifierThreads, n, 20*classifierThreads)
	}
	if x.rx.Len() == 0 {
		t.Fatal("Rx ring drained despite the classifier bound")
	}
}

func TestClassifierThreadAccounting(t *testing.T) {
	s := sim.New(1)
	x, _ := newTestIXP(s, Config{})
	if got := x.rx.Threads(); got != classifierThreads {
		t.Fatalf("classifier threads = %d, want %d", got, classifierThreads)
	}
	// The classifier and Tx pools draw on the same budget as the flows.
	if got := x.ThreadsAllocated(); got != txThreads+classifierThreads {
		t.Fatalf("ThreadsAllocated at boot = %d, want %d", got, txThreads+classifierThreads)
	}
	x.RegisterFlow(1)
	full := MaxSchedulableThreads - txThreads - classifierThreads
	if err := x.SetFlowThreads(1, full); err != nil {
		t.Fatalf("filling the budget exactly: %v", err)
	}
	if got := x.ThreadsAllocated(); got != MaxSchedulableThreads {
		t.Fatalf("ThreadsAllocated = %d, want %d", got, MaxSchedulableThreads)
	}
	err := x.SetFlowThreads(1, full+1)
	if err == nil || !strings.Contains(err.Error(), "microengine pool exhausted") {
		t.Fatalf("budget overflow: got %v", err)
	}
	if x.FlowThreads(1) != full || x.ThreadsAllocated() != MaxSchedulableThreads {
		t.Fatal("a refused resize changed the allocation")
	}
	if err := x.SetFlowThreads(1, 1); err != nil {
		t.Fatal(err)
	}
	if got := x.ThreadsAllocated(); got != txThreads+classifierThreads+1 {
		t.Fatalf("ThreadsAllocated after release = %d", got)
	}
}

func TestRxRingOverflowDrops(t *testing.T) {
	s := sim.New(1)
	x, _ := newTestIXP(s, Config{
		ClassifyCost: 10 * sim.Millisecond, // stall classification
		RxRingBytes:  2000,
	})
	x.RegisterFlow(1)
	for i := uint64(0); i < 10; i++ {
		x.Receive(pkt(i, 1, 500))
	}
	s.RunUntil(1 * sim.Millisecond)
	if x.RxStageDrops() == 0 {
		t.Fatal("no Rx ring drops despite overflow")
	}
	if x.RxDropped() == 0 {
		t.Fatal("ring drops not counted in RxDropped")
	}
}

func TestFlowPollIntervalOverride(t *testing.T) {
	s := sim.New(1)
	x, _ := newTestIXP(s, Config{PollInterval: 50 * sim.Microsecond})
	x.RegisterFlow(1)
	if got := x.FlowPollInterval(1); got != 50*sim.Microsecond {
		t.Fatalf("default poll = %v", got)
	}
	if err := x.SetFlowPollInterval(1, 10*sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	if got := x.FlowPollInterval(1); got != 10*sim.Microsecond {
		t.Fatalf("override poll = %v", got)
	}
	if err := x.SetFlowPollInterval(1, -5); err != nil {
		t.Fatal(err)
	}
	if got := x.FlowPollInterval(1); got != 50*sim.Microsecond {
		t.Fatalf("restored poll = %v", got)
	}
	if err := x.SetFlowPollInterval(9, sim.Microsecond); err == nil {
		t.Fatal("unknown flow accepted")
	}
	if x.FlowPollInterval(9) != 0 {
		t.Fatal("unknown flow interval != 0")
	}
}
