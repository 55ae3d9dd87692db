package ixp

import (
	"fmt"

	"repro/internal/flight"
	"repro/internal/netsim"
)

// rxStage is the receive classification stage: packets from the wire queue
// here and a pool of classifier threads (microengine contexts running the
// Rx-classify image) drain them, paying ClassifyCost per packet, running
// the DPI hooks, and steering each packet into its destination VM's flow
// queue. The stage's buffer models the Rx ring in SRAM.
type rxStage struct {
	x        *IXP
	pkts     []*netsim.Packet
	bytes    int
	capBytes int

	threads int
	alive   []bool

	enq, drops uint64
}

func newRxStage(x *IXP, capBytes int) *rxStage {
	return &rxStage{x: x, capBytes: capBytes}
}

// enqueue admits a packet from the wire, or tail-drops on a full Rx ring.
func (st *rxStage) enqueue(p *netsim.Packet) bool {
	if st.bytes+p.Size > st.capBytes {
		st.drops++
		return false
	}
	st.pkts = append(st.pkts, p)
	st.bytes += p.Size
	st.enq++
	return true
}

func (st *rxStage) pop() *netsim.Packet {
	if len(st.pkts) == 0 {
		return nil
	}
	p := st.pkts[0]
	copy(st.pkts, st.pkts[1:])
	st.pkts[len(st.pkts)-1] = nil
	st.pkts = st.pkts[:len(st.pkts)-1]
	st.bytes -= p.Size
	return p
}

// setThreads adjusts the classifier pool (same lifecycle discipline as the
// flow queues' dequeue workers).
func (st *rxStage) setThreads(n int) {
	st.threads = n
	for len(st.alive) < n {
		st.alive = append(st.alive, false)
	}
	for id := 0; id < n; id++ {
		if !st.alive[id] {
			st.alive[id] = true
			id := id
			st.x.sim.After(0, func() { st.workerLoop(id) })
		}
	}
}

// workerLoop is one classifier thread.
func (st *rxStage) workerLoop(id int) {
	if id >= st.threads {
		st.alive[id] = false
		return
	}
	p := st.pop()
	if p == nil {
		st.x.sim.After(st.x.cfg.PollInterval, func() { st.workerLoop(id) })
		return
	}
	st.x.sim.After(st.x.scaledCost(st.x.cfg.ClassifyCost), func() {
		st.x.classify(p)
		st.workerLoop(id)
	})
}

// SetClassifierThreads resizes the Rx classification pool — a third
// IXP-side allocation knob alongside dequeue threads and poll intervals.
func (x *IXP) SetClassifierThreads(n int) error {
	if n < 1 {
		return fmt.Errorf("ixp: classifier threads must be >= 1, got %d", n)
	}
	delta := n - x.rx.threads
	if delta > 0 {
		if err := x.mes.Assign(delta); err != nil {
			return err
		}
	} else if delta < 0 {
		if err := x.mes.Release(-delta); err != nil {
			return err
		}
	}
	x.threads += delta
	x.rx.setThreads(n)
	if x.rec != nil && delta != 0 {
		x.rec.Record(flight.Event{
			T: x.sim.Now(), Cat: flight.CatIXP, Code: flight.IXPClassifier,
			Label: "ixp", Entity: -1, Arg: int64(n),
		})
	}
	return nil
}

// ClassifierThreads returns the Rx classification pool size.
func (x *IXP) ClassifierThreads() int { return x.rx.threads }

// RxStageDrops returns packets tail-dropped at the Rx ring before
// classification.
func (x *IXP) RxStageDrops() uint64 { return x.rx.drops }

// classify runs the DPI hooks and steers a classified packet to its flow
// queue (the post-classification half of the old Receive path).
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
