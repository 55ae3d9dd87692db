// Package ixp models the paper's second scheduling island: an Intel IXP2850
// network processor (on a Netronome i8000 card) acting as the programmable
// network interface for all guest-VM traffic.
//
// The model keeps the pieces the paper's coordination schemes depend on:
//
//   - one packet-queue type, FlowQueue, served by a pool of poll-driven
//     worker threads. The Rx ring (classifier threads running deep packet
//     inspection), the per-VM flow queues in DRAM (dequeue threads) and
//     the Tx queue (transmit threads) are all FlowQueues; they differ only
//     in per-packet cost, where a serviced packet goes, and whether the
//     host-ring gate holds them;
//   - a software weighted scheduler on top of the hardware round-robin
//     thread switching: each flow queue is served by a configurable number
//     of dequeue threads with a configurable polling interval, which is the
//     IXP-side resource-allocation knob ("by tuning the number of dequeuing
//     threads per queue and their polling intervals, we can control the
//     ingress and egress network bandwidth seen by the VM");
//   - PCI-Rx / PCI-Tx engines bridging to the host message queues over the
//     PCIe channel; and
//   - the XScale control core where the IXP-side coordination agent runs
//     (flow-state tracking, buffer watermark monitoring).
//
// Microengine arithmetic (14 schedulable MEs x 8 threads) is a single
// thread budget every queue's workers draw from; per-packet costs are
// thread-occupancy times derived from cycle counts at the 1.4 GHz clock.
package ixp

import (
	"fmt"

	"repro/internal/flight"
	"repro/internal/netsim"
	"repro/internal/pcie"
	"repro/internal/sim"
)

// Hardware constants of the IXP2850 as described in the paper (§2.1).
const (
	NumMicroengines = 16
	ThreadsPerME    = 8
	ClockHz         = 1.4e9

	// Microengines reserved for the PCIe descriptor engines (PCI-Rx and
	// PCI-Tx in Figure 3), unavailable to the Rx/Tx/classify scheduler.
	reservedMEs = 2
)

// MaxSchedulableThreads is the thread budget available to the Rx/Tx
// weighted schedulers after the PCI engines take their microengines.
const MaxSchedulableThreads = (NumMicroengines - reservedMEs) * ThreadsPerME

// NumMEPools is the number of clock-gating domains the schedulable
// microengines are grouped into — the IXP island's DVFS analogue. Gating a
// pool keeps thread allocations intact but leaves fewer powered engines
// behind them, stretching per-packet service times by the pool ratio.
const NumMEPools = 4

// Cycles converts a microengine cycle count into simulated time at the
// 1.4 GHz clock.
func Cycles(n int) sim.Time {
	return sim.Time(float64(n) / ClockHz * float64(sim.Second))
}

// Worker pools provisioned at boot: the Tx queue's transmit threads and
// the Rx ring's classifier threads. Neither is resized afterwards.
const (
	txThreads         = 2
	classifierThreads = 8
)

// Config tunes the IXP model. Zero fields take defaults chosen to
// approximate the prototype.
type Config struct {
	ClassifyCost   sim.Time // DPI cost per received packet (default ~1.4us = 2000 cycles)
	DequeueCost    sim.Time // per-packet dequeue+descriptor cost (default ~0.7us)
	PollInterval   sim.Time // dequeue-thread polling interval when idle (default 50us)
	ThreadsPerFlow int      // initial dequeue threads per VM flow queue (default 2)
	BufferBytes    int      // DRAM buffer pool per flow queue (default 512 KB)
	RxRingBytes    int      // SRAM Rx ring ahead of classification (default 256 KB)
}

func (c *Config) applyDefaults() {
	if c.ClassifyCost == 0 {
		c.ClassifyCost = ClassifyProfile.ServiceTime()
	}
	if c.DequeueCost == 0 {
		c.DequeueCost = DequeueProfile.ServiceTime()
	}
	if c.PollInterval == 0 {
		c.PollInterval = 50 * sim.Microsecond
	}
	if c.ThreadsPerFlow == 0 {
		c.ThreadsPerFlow = 2
	}
	if c.BufferBytes == 0 {
		c.BufferBytes = 512 << 10
	}
	if c.RxRingBytes == 0 {
		c.RxRingBytes = 256 << 10
	}
}

// DPI inspects a packet during classification and may rewrite its Class.
// The RUBiS request classifier and the MPlayer stream classifier are DPIs.
type DPI func(*netsim.Packet)

// Admission is the early-admission gate run on every received packet
// before the DPI hooks: returning admit=false sheds the packet at the NIC
// — it never crosses PCIe — and transmits resp (when non-nil) back toward
// the wire so closed-loop clients see a fast rejection instead of silence.
// The coordinated overload-control plane installs a per-class shedder here.
type Admission func(*netsim.Packet) (resp *netsim.Packet, admit bool)

// IXP is the network-processor island.
type IXP struct {
	sim    *sim.Simulator
	cfg    Config
	xsc    *XScale
	dpis   []DPI
	txDPIs []DPI
	rec    *flight.Recorder

	flows     map[int]*FlowQueue // keyed by destination VM
	flowOrder []int              // deterministic iteration order
	admit     Admission

	hostChan *pcie.Channel // IXP -> host (PCI-Tx direction)
	toHost   func(*netsim.Packet)
	hostGate func() bool // true when the host message ring is full

	rx      *FlowQueue // wire -> classification (the Rx ring in SRAM)
	txq     *FlowQueue // host -> wire transmit queue
	wire    func(*netsim.Packet)
	threads int // worker threads allocated across every queue

	// activePools is the number of ungated microengine pools (the energy
	// plane's actuation). Per-packet costs scale by NumMEPools/activePools;
	// with every pool active the scaling is the exact identity.
	//lint:decision
	activePools int

	rxSeen    uint64
	rxDropped uint64
	rxShed    uint64
	txSeen    uint64
}

// New builds an IXP attached to the host via hostChan; packets it delivers
// to the host arrive through deliver (the messaging driver's entry point).
func New(s *sim.Simulator, cfg Config, hostChan *pcie.Channel, deliver func(*netsim.Packet)) *IXP {
	cfg.applyDefaults()
	x := &IXP{
		sim:         s,
		cfg:         cfg,
		flows:       make(map[int]*FlowQueue),
		hostChan:    hostChan,
		toHost:      deliver,
		activePools: NumMEPools,
	}
	x.xsc = newXScale(x)
	x.txq = newFlowQueue(x, -1, cfg.BufferBytes, TxProfile.ServiceTime(), x.toWire, false)
	x.rx = newFlowQueue(x, -1, cfg.RxRingBytes, cfg.ClassifyCost, x.classify, false)
	// Tx workers spawn before the classifier pool; the order fixes the
	// event sequence of every run.
	if err := x.resize(x.txq, txThreads); err != nil {
		panic(fmt.Sprintf("ixp: provisioning Tx threads: %v", err))
	}
	if err := x.resize(x.rx, classifierThreads); err != nil {
		panic(fmt.Sprintf("ixp: provisioning classifier threads: %v", err))
	}
	return x
}

// Simulator returns the driving simulator.
func (x *IXP) Simulator() *sim.Simulator { return x.sim }

// Config returns the active (defaulted) configuration.
func (x *IXP) Config() Config { return x.cfg }

// XScale returns the control core, home of the IXP-side coordination agent.
func (x *IXP) XScale() *XScale { return x.xsc }

// SetFlightRecorder taps flow-thread changes, poll-interval changes, and
// admission-gate sheds into the flight recorder (nil disables).
func (x *IXP) SetFlightRecorder(r *flight.Recorder) { x.rec = r }

// AddDPI appends a deep-packet-inspection hook run during receive-side
// classification (wire -> host traffic).
func (x *IXP) AddDPI(d DPI) { x.dpis = append(x.dpis, d) }

// SetAdmission installs the early-admission gate (nil uninstalls it).
func (x *IXP) SetAdmission(a Admission) { x.admit = a }

// AddTxDPI appends an inspection hook run on transmit traffic
// (host -> wire). The coordination policies that correlate responses with
// requests (outstanding-load tracking) observe both directions this way.
func (x *IXP) AddTxDPI(d DPI) { x.txDPIs = append(x.txDPIs, d) }

// RegisterFlow creates the per-VM flow queue for vmID with the default
// thread allocation. Flows must be registered before traffic arrives (the
// paper's VM registration with the global controller at deployment time).
func (x *IXP) RegisterFlow(vmID int) *FlowQueue {
	if _, ok := x.flows[vmID]; ok {
		panic(fmt.Sprintf("ixp: flow for VM %d already registered", vmID))
	}
	q := newFlowQueue(x, vmID, x.cfg.BufferBytes, x.cfg.DequeueCost, x.deliverToHost, true)
	x.flows[vmID] = q
	x.flowOrder = append(x.flowOrder, vmID)
	if err := x.SetFlowThreads(vmID, x.cfg.ThreadsPerFlow); err != nil {
		panic(fmt.Sprintf("ixp: provisioning flow for VM %d: %v", vmID, err))
	}
	return q
}

// Flow returns the flow queue for vmID, or nil.
func (x *IXP) Flow(vmID int) *FlowQueue { return x.flows[vmID] }

// Flows returns the registered VM IDs in registration order.
func (x *IXP) Flows() []int { return x.flowOrder }

// ThreadsAllocated returns the worker threads allocated across every queue
// (classifier, dequeue and transmit) against MaxSchedulableThreads.
func (x *IXP) ThreadsAllocated() int { return x.threads }

// SetFlowThreads changes the number of dequeue threads serving vmID's flow
// queue — the IXP-side actuation of the Tune mechanism. It fails if the
// flow is unknown, n < 1, or the microengine thread budget would overflow.
func (x *IXP) SetFlowThreads(vmID, n int) error {
	q, ok := x.flows[vmID]
	if !ok {
		return fmt.Errorf("ixp: no flow for VM %d", vmID)
	}
	if n < 1 {
		return fmt.Errorf("ixp: flow threads must be >= 1, got %d", n)
	}
	return x.resize(q, n)
}

// resize sets q's worker pool to n threads, charging the difference to the
// microengine thread budget, and taps the change into the flight log.
func (x *IXP) resize(q *FlowQueue, n int) error {
	delta := n - q.threads
	if x.threads+delta > MaxSchedulableThreads {
		return fmt.Errorf("ixp: microengine pool exhausted (%d + %d > %d)",
			x.threads, delta, MaxSchedulableThreads)
	}
	x.threads += delta
	q.setThreads(n)
	if x.rec != nil && delta != 0 {
		x.rec.Record(flight.Event{
			T: x.sim.Now(), Cat: flight.CatIXP, Code: flight.IXPThreads,
			Label: "ixp", Entity: int32(q.vmID), Arg: int64(n),
		})
	}
	return nil
}

// SetFlowPollInterval overrides the dequeue-thread polling interval for
// vmID's flow queue — the paper's second IXP-side tuning knob ("by tuning
// the number of dequeuing threads per queue and their polling intervals").
// A non-positive interval restores the global default.
func (x *IXP) SetFlowPollInterval(vmID int, d sim.Time) error {
	q, ok := x.flows[vmID]
	if !ok {
		return fmt.Errorf("ixp: no flow for VM %d", vmID)
	}
	if d < 0 {
		d = 0
	}
	if q.poll != d {
		q.poll = d
		if x.rec != nil {
			x.rec.Record(flight.Event{
				T: x.sim.Now(), Cat: flight.CatIXP, Code: flight.IXPPoll,
				Label: "ixp", Entity: int32(vmID), Arg: int64(d),
			})
		}
	}
	return nil
}

// FlowPollInterval returns the effective polling interval for vmID, or 0
// for unknown flows.
func (x *IXP) FlowPollInterval(vmID int) sim.Time {
	if q, ok := x.flows[vmID]; ok {
		return q.PollInterval()
	}
	return 0
}

// ActivePools returns the number of ungated microengine pools.
func (x *IXP) ActivePools() int { return x.activePools }

// SetActivePools gates or ungates microengine pools — the IXP island's
// DVFS-style energy actuation. Thread allocations are untouched; per-packet
// classify/dequeue/tx costs stretch by NumMEPools/activePools so a gated
// island trades packet latency for static power.
func (x *IXP) SetActivePools(n int) error {
	if n < 1 || n > NumMEPools {
		return fmt.Errorf("ixp: active pools %d outside [1, %d]", n, NumMEPools)
	}
	if n == x.activePools {
		return nil
	}
	x.activePools = n
	if x.rec != nil {
		x.rec.Record(flight.Event{
			T: x.sim.Now(), Cat: flight.CatEnergy, Code: flight.EnergyPools,
			Label: "ixp", Entity: -1, Arg: int64(n),
		})
	}
	return nil
}

// scaledCost stretches a per-packet service cost by the clock-gating ratio.
// With every pool active the multiply-then-divide is the exact identity.
func (x *IXP) scaledCost(c sim.Time) sim.Time {
	return c * sim.Time(NumMEPools) / sim.Time(x.activePools)
}

// FlowThreads returns the dequeue threads currently serving vmID, or 0.
func (x *IXP) FlowThreads(vmID int) int {
	if q, ok := x.flows[vmID]; ok {
		return q.threads
	}
	return 0
}

// Receive injects a packet arriving from the wire. The packet is classified
// (DPI hooks run here) and steered into its destination VM's flow queue;
// packets for unregistered VMs are dropped, as are packets overflowing the
// queue's DRAM buffers.
func (x *IXP) Receive(p *netsim.Packet) {
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("ixp: invalid packet: %v", err))
	}
	x.rxSeen++
	// The packet lands in the Rx ring and waits for a classifier thread,
	// which pays ClassifyCost, runs the DPI hooks, and steers it into its
	// flow queue.
	if !x.rx.enqueue(p) {
		x.rxDropped++
	}
}

// RxStageDrops returns packets tail-dropped at the Rx ring before
// classification.
func (x *IXP) RxStageDrops() uint64 { return x.rx.drops }

// classify runs the admission gate and the DPI hooks on a packet leaving
// the Rx ring and steers it into its flow queue.
func (x *IXP) classify(p *netsim.Packet) {
	// The admission gate runs before the DPI hooks: a shed packet is
	// invisible to the coordination policies' request accounting (its
	// bounce bypasses the Tx DPIs too, so outstanding-load bookkeeping
	// stays balanced) and never consumes PCIe or host resources.
	if x.admit != nil {
		if resp, ok := x.admit(p); !ok {
			x.rxShed++
			if x.rec != nil {
				x.rec.Record(flight.Event{
					T: x.sim.Now(), Cat: flight.CatIXP, Code: flight.IXPGateShed,
					Label: "ixp", Entity: int32(p.DstVM), Arg: int64(p.ID),
				})
			}
			if resp != nil && !x.txq.enqueue(resp) {
				x.rxDropped++
			}
			return
		}
	}
	for _, d := range x.dpis {
		d(p)
	}
	q, ok := x.flows[p.DstVM]
	if !ok {
		x.rxDropped++
		return
	}
	if !q.enqueue(p) {
		x.rxDropped++
	}
}

// deliverToHost DMAs a packet descriptor+payload to the host message queue.
func (x *IXP) deliverToHost(p *netsim.Packet) {
	x.hostChan.Send(p.Size, func() {
		if x.toHost != nil {
			x.toHost(p)
		}
	})
}

// TransmitFromHost accepts a packet DMA'd from the host (PCI-Rx direction)
// and queues it for transmission to the wire.
func (x *IXP) TransmitFromHost(p *netsim.Packet) {
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("ixp: invalid packet: %v", err))
	}
	x.txSeen++
	for _, d := range x.txDPIs {
		d(p)
	}
	if !x.txq.enqueue(p) {
		x.rxDropped++
	}
}

// toWire hands a transmitted packet to the egress callback.
func (x *IXP) toWire(p *netsim.Packet) {
	if x.wire != nil {
		x.wire(p)
	}
}

// ConnectWire installs the egress callback (packets leaving toward external
// clients).
func (x *IXP) ConnectWire(fn func(*netsim.Packet)) { x.wire = fn }

// ConnectHostGate installs a host-ring-full predicate. While it returns
// true, dequeue threads stop DMAing descriptors and packets accumulate in
// IXP DRAM — the backpressure that makes the paper's Figure 7 buffer
// monitoring meaningful.
func (x *IXP) ConnectHostGate(fn func() bool) { x.hostGate = fn }

// RxSeen returns packets received from the wire.
func (x *IXP) RxSeen() uint64 { return x.rxSeen }

// RxDropped returns packets dropped (unknown VM or buffer overflow).
func (x *IXP) RxDropped() uint64 { return x.rxDropped }

// RxShed returns packets rejected by the early-admission gate before
// crossing PCIe.
func (x *IXP) RxShed() uint64 { return x.rxShed }

// TxSeen returns packets accepted from the host for transmission.
func (x *IXP) TxSeen() uint64 { return x.txSeen }
