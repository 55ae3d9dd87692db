package netsim

import (
	"fmt"

	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/xen"
)

// txCostPerPacket is the Dom0 CPU charged per transmitted packet.
const txCostPerPacket = 4 * sim.Microsecond

// Config sets the CPU costs the host network path charges to Dom0. The
// paper's prototype funnels all VM traffic through the messaging driver,
// the IXP ViF (socket-buffer conversion), and the Xen bridge, all running
// in Dom0 — this is why coordination raises guest "user" CPU while cutting
// Dom0 "system" time.
type Config struct {
	RxCostPerPacket sim.Time // Dom0 CPU per received packet (default 4us)
	RxBatch         int      // packets handled per Dom0 task (default 8)

	// IntrPeriod enables interrupt moderation: the IXP "can be programmed
	// to interrupt the host at a user-defined frequency" (§2.1), and the
	// messaging driver only checks the message queues when the interrupt
	// is serviced. Received packets accumulate and are handed to Dom0 in a
	// burst every IntrPeriod. Zero (the default) delivers immediately.
	IntrPeriod sim.Time
}

func (c *Config) applyDefaults() {
	if c.RxCostPerPacket == 0 {
		c.RxCostPerPacket = 4 * sim.Microsecond
	}
	if c.RxBatch == 0 {
		c.RxBatch = 8
	}
}

// Handler consumes a packet at a guest domain (netfront equivalent).
type Handler func(*Packet)

// BoundedHandler consumes a packet at a guest domain and reports whether it
// was accepted. Rejection (a full in-VM socket buffer) leaves the packet in
// the host message ring, creating the backpressure chain of the paper's
// Figure 7: a slow VM backs up the ring, which backs up the IXP DRAM
// queue, which is what the buffer-watermark trigger watches.
type BoundedHandler func(*Packet) bool

// HostStack is the Dom0-resident network path: messaging driver + IXP ViF +
// Xen bridge. Receive traffic arrives from the PCIe channel, costs Dom0 CPU,
// and is demultiplexed by destination VM; transmit traffic costs Dom0 CPU
// and is pushed into the PCIe channel toward the IXP.
type HostStack struct {
	sim  *sim.Simulator
	cfg  Config
	dom0 *xen.Domain

	txChan   *pcie.Channel // host -> IXP
	handlers map[int]Handler
	bounded  map[int]BoundedHandler
	onTxIXP  func(*Packet) // IXP-side transmit entry point

	rxBacklog []*Packet // packets delivered by PCIe, awaiting Dom0 service
	rxPending bool      // a Dom0 rx batch task is queued

	ringCap    int      // max rxBacklog length before the ring is "full"
	retryDelay sim.Time // re-poll delay when a bounded handler rejects

	staging    []*Packet // packets awaiting the next moderated interrupt
	interrupts uint64    // interrupts raised (moderation enabled only)

	pollStop func()

	rxCount, txCount uint64
	rxDropNoHandler  uint64
	rxRetries        uint64
}

// NewHostStack builds the host network path. dom0 is the domain charged for
// packet processing; txChan carries transmit traffic to the IXP.
func NewHostStack(s *sim.Simulator, dom0 *xen.Domain, txChan *pcie.Channel, cfg Config) *HostStack {
	cfg.applyDefaults()
	h := &HostStack{
		sim:        s,
		cfg:        cfg,
		dom0:       dom0,
		txChan:     txChan,
		handlers:   make(map[int]Handler),
		bounded:    make(map[int]BoundedHandler),
		ringCap:    256,
		retryDelay: sim.Millisecond,
	}
	if cfg.IntrPeriod > 0 {
		s.Ticker(cfg.IntrPeriod, h.serviceInterrupt)
	}
	return h
}

// serviceInterrupt is the moderated interrupt handler: it moves staged
// packets into the message ring and kicks the Dom0 receive path.
func (h *HostStack) serviceInterrupt() {
	if len(h.staging) == 0 {
		return // coalesced away: nothing pending, no interrupt raised
	}
	h.interrupts++
	h.rxBacklog = append(h.rxBacklog, h.staging...)
	h.staging = h.staging[:0]
	h.scheduleRxBatch()
}

// Interrupts returns the number of moderated interrupts serviced.
func (h *HostStack) Interrupts() uint64 { return h.interrupts }

// Staged returns the packets awaiting the next moderated interrupt.
func (h *HostStack) Staged() int { return len(h.staging) }

// SetRingCapacity bounds the host message ring (packets). The IXP side
// consults RingFull to apply backpressure.
func (h *HostStack) SetRingCapacity(n int) {
	if n <= 0 {
		panic(fmt.Sprintf("netsim: ring capacity %d", n))
	}
	h.ringCap = n
}

// RingFull reports whether the host message ring is at capacity (staged
// packets awaiting a moderated interrupt occupy ring slots too).
func (h *HostStack) RingFull() bool { return len(h.rxBacklog)+len(h.staging) >= h.ringCap }

// RegisterBounded installs a backpressure-capable receive handler for a
// guest domain. Rejected packets stay at the head of the ring and are
// retried after a short delay.
func (h *HostStack) RegisterBounded(vmID int, fn BoundedHandler) {
	if fn == nil {
		panic(fmt.Sprintf("netsim: nil bounded handler for VM %d", vmID))
	}
	h.bounded[vmID] = fn
}

// StartPollingDriver emulates the vendor messaging driver's periodic
// polling (§2.1: "The messaging driver handles packet-receive by periodic
// polling"): every period, Dom0 burns cost of CPU regardless of traffic.
// This steady Dom0 demand is the contention source in the MPlayer
// experiments. The returned function stops the poller.
func (h *HostStack) StartPollingDriver(period, cost sim.Time) (stop func()) {
	if period <= 0 || cost <= 0 {
		panic(fmt.Sprintf("netsim: polling driver period %v cost %v", period, cost))
	}
	pending := false
	h.pollStop = h.sim.Ticker(period, func() {
		if pending {
			return // previous poll still queued; do not pile up demand
		}
		pending = true
		h.dom0.SubmitFunc(cost, "msg-poll", func() { pending = false })
	})
	return h.pollStop
}

// Retries returns how many receive deliveries were deferred by a bounded
// handler rejecting the packet.
func (h *HostStack) Retries() uint64 { return h.rxRetries }

// Dom0 returns the domain charged for host-side packet processing.
func (h *HostStack) Dom0() *xen.Domain { return h.dom0 }

// Register installs the receive handler for a guest domain's ViF.
func (h *HostStack) Register(vmID int, fn Handler) {
	if fn == nil {
		panic(fmt.Sprintf("netsim: nil handler for VM %d", vmID))
	}
	h.handlers[vmID] = fn
}

// ConnectIXPTransmit installs the IXP-side entry point for host transmit
// traffic (the PCI-Rx microengine's input).
func (h *HostStack) ConnectIXPTransmit(fn func(*Packet)) { h.onTxIXP = fn }

// DeliverFromIXP accepts a packet that the PCIe DMA placed in the host
// message queue. It queues Dom0 processing; the destination VM sees the
// packet only after Dom0 has run the messaging-driver/bridge code.
func (h *HostStack) DeliverFromIXP(p *Packet) {
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("netsim: invalid packet: %v", err))
	}
	if h.cfg.IntrPeriod > 0 {
		h.staging = append(h.staging, p)
		return
	}
	h.rxBacklog = append(h.rxBacklog, p)
	h.scheduleRxBatch()
}

// scheduleRxBatch queues one Dom0 task to drain up to RxBatch packets. A
// bounded handler rejecting a packet stalls the ring head until the retry
// delay elapses (or new traffic re-arms delivery).
func (h *HostStack) scheduleRxBatch() {
	if h.rxPending || len(h.rxBacklog) == 0 {
		return
	}
	h.rxPending = true
	n := len(h.rxBacklog)
	if n > h.cfg.RxBatch {
		n = h.cfg.RxBatch
	}
	cost := h.cfg.RxCostPerPacket * sim.Time(n)
	h.dom0.SubmitFunc(cost, "net-rx", func() {
		stalled := false
		for delivered := 0; delivered < n && len(h.rxBacklog) > 0; delivered++ {
			p := h.rxBacklog[0]
			if bh, ok := h.bounded[p.DstVM]; ok {
				if !bh(p) {
					h.rxRetries++
					stalled = true
					break
				}
				h.rxCount++
			} else if fn, ok := h.handlers[p.DstVM]; ok {
				h.rxCount++
				fn(p)
			} else {
				h.rxDropNoHandler++
			}
			h.rxBacklog = h.rxBacklog[1:]
		}
		h.rxPending = false
		if stalled {
			h.sim.After(h.retryDelay, h.scheduleRxBatch)
			return
		}
		h.scheduleRxBatch()
	})
}

// Transmit sends a packet from a guest domain toward the IXP: it charges
// Dom0 the transmit path cost, then DMAs the packet over the PCIe channel.
func (h *HostStack) Transmit(p *Packet) {
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("netsim: invalid packet: %v", err))
	}
	h.dom0.SubmitFunc(txCostPerPacket, "net-tx", func() {
		h.txCount++
		h.txChan.Send(p.Size, func() {
			if h.onTxIXP != nil {
				h.onTxIXP(p)
			}
		})
	})
}

// RxDelivered returns the number of packets delivered to guest handlers.
func (h *HostStack) RxDelivered() uint64 { return h.rxCount }

// TxSent returns the number of packets pushed toward the IXP.
func (h *HostStack) TxSent() uint64 { return h.txCount }

// RxDropped returns receive packets dropped for lack of a registered VM.
func (h *HostStack) RxDropped() uint64 { return h.rxDropNoHandler }

// RxBacklog returns packets waiting for Dom0 receive processing.
func (h *HostStack) RxBacklog() int { return len(h.rxBacklog) }
