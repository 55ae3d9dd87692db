package ixp

import (
	"repro/internal/netsim"
	"repro/internal/sim"
)

// FlowQueue is a per-VM packet queue in IXP DRAM, served by a configurable
// number of dequeue threads (the weighted-scheduling knob of §2.1). The
// special transmit queue uses vmID -1 and delivers to the wire instead of
// the host.
type FlowQueue struct {
	x        *IXP
	vmID     int
	capBytes int

	pkts  []*netsim.Packet
	bytes int

	threads int
	alive   []bool // per-worker-slot liveness

	// Edge-triggered high-watermark notification (buffer monitoring use
	// case, Figure 7): fired when occupancy crosses the threshold upward,
	// re-armed when it falls back below.
	watermark      int
	watermarkFn    func(bytes int)
	watermarkArmed bool

	poll sim.Time // per-flow polling interval override (0 = global default)

	enq, deq, drops uint64
	maxBytes        int
}

func newFlowQueue(x *IXP, vmID, capBytes int) *FlowQueue {
	return &FlowQueue{x: x, vmID: vmID, capBytes: capBytes, watermarkArmed: true}
}

// VM returns the destination VM this queue serves (-1 for the tx queue).
func (q *FlowQueue) VM() int { return q.vmID }

// Len returns the number of queued packets.
func (q *FlowQueue) Len() int { return len(q.pkts) }

// Bytes returns the current DRAM buffer occupancy in bytes.
func (q *FlowQueue) Bytes() int { return q.bytes }

// MaxBytes returns the high-water mark of buffer occupancy.
func (q *FlowQueue) MaxBytes() int { return q.maxBytes }

// Capacity returns the queue's DRAM buffer capacity in bytes.
func (q *FlowQueue) Capacity() int { return q.capBytes }

// Threads returns the number of dequeue threads serving the queue.
func (q *FlowQueue) Threads() int { return q.threads }

// PollInterval returns the queue's effective dequeue-thread polling
// interval.
func (q *FlowQueue) PollInterval() sim.Time {
	if q.poll > 0 {
		return q.poll
	}
	return q.x.cfg.PollInterval
}

// Enqueued, Dequeued, and Dropped return lifetime packet counters.
func (q *FlowQueue) Enqueued() uint64 { return q.enq }

// Dequeued returns the number of packets the dequeue threads have serviced.
func (q *FlowQueue) Dequeued() uint64 { return q.deq }

// Dropped returns packets tail-dropped on buffer overflow.
func (q *FlowQueue) Dropped() uint64 { return q.drops }

// SetHighWatermark installs fn to fire when buffer occupancy crosses bytes
// from below. Passing bytes <= 0 removes the watermark.
func (q *FlowQueue) SetHighWatermark(bytes int, fn func(bytes int)) {
	q.watermark = bytes
	q.watermarkFn = fn
	q.watermarkArmed = true
}

// enqueue adds p, returning false on overflow (tail drop).
func (q *FlowQueue) enqueue(p *netsim.Packet) bool {
	if q.bytes+p.Size > q.capBytes {
		q.drops++
		return false
	}
	q.pkts = append(q.pkts, p)
	q.bytes += p.Size
	q.enq++
	if q.bytes > q.maxBytes {
		q.maxBytes = q.bytes
	}
	if q.watermark > 0 && q.watermarkArmed && q.bytes >= q.watermark && q.watermarkFn != nil {
		q.watermarkArmed = false
		q.watermarkFn(q.bytes)
	}
	return true
}

// pop removes the head packet, or returns nil.
func (q *FlowQueue) pop() *netsim.Packet {
	if len(q.pkts) == 0 {
		return nil
	}
	p := q.pkts[0]
	copy(q.pkts, q.pkts[1:])
	q.pkts[len(q.pkts)-1] = nil
	q.pkts = q.pkts[:len(q.pkts)-1]
	q.bytes -= p.Size
	q.deq++
	if q.watermark > 0 && q.bytes < q.watermark {
		q.watermarkArmed = true
	}
	return p
}

// setThreads adjusts the worker count. Shrinking lets surplus workers die
// at their next loop boundary; growing spawns workers for the new slots.
func (q *FlowQueue) setThreads(n int) {
	q.threads = n
	for len(q.alive) < n {
		q.alive = append(q.alive, false)
	}
	for id := 0; id < n; id++ {
		if !q.alive[id] {
			q.alive[id] = true
			q.spawn(id)
		}
	}
}

// spawn schedules the first iteration of worker id's loop.
func (q *FlowQueue) spawn(id int) {
	q.x.sim.After(0, func() { q.workerLoop(id) })
}

// workerLoop is one dequeue thread: pop a packet and service it, or poll
// again after the polling interval. The service cost and delivery target
// depend on the queue's direction.
func (q *FlowQueue) workerLoop(id int) {
	if id >= q.threads {
		q.alive[id] = false // deallocated by a Tune action
		return
	}
	if q.vmID != -1 && q.x.hostGate != nil && q.x.hostGate() {
		// Host message ring full: hold the descriptor in DRAM and re-poll.
		q.x.sim.After(q.PollInterval(), func() { q.workerLoop(id) })
		return
	}
	p := q.pop()
	if p == nil {
		q.x.sim.After(q.PollInterval(), func() { q.workerLoop(id) })
		return
	}
	var cost sim.Time
	if q.vmID == -1 {
		cost = txCost
	} else {
		cost = q.x.cfg.DequeueCost
	}
	q.x.sim.After(q.x.scaledCost(cost), func() {
		if q.vmID == -1 {
			if q.x.toWire != nil {
				q.x.toWire(p)
			}
		} else {
			q.x.deliverToHost(p)
		}
		q.workerLoop(id)
	})
}
