package ixp

import (
	"repro/internal/netsim"
	"repro/internal/sim"
)

// FlowQueue is a packet queue in IXP memory served by a pool of
// poll-driven worker threads — the weighted-scheduling knob of §2.1. Every
// queue on the island is one: the Rx ring ahead of classification, the
// per-VM flow queues in DRAM, and the Tx queue toward the wire. They
// differ only in what is fixed when they are built: the per-packet cost,
// where a serviced packet goes, and whether the host-ring gate holds them.
type FlowQueue struct {
	x        *IXP
	vmID     int // destination VM; -1 for the Rx ring and the Tx queue
	capBytes int

	cost  sim.Time             // per-packet service cost with every pool active
	serve func(*netsim.Packet) // destination of a serviced packet
	gated bool                 // hold packets while the host ring is full

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

func newFlowQueue(x *IXP, vmID, capBytes int, cost sim.Time, serve func(*netsim.Packet), gated bool) *FlowQueue {
	return &FlowQueue{x: x, vmID: vmID, capBytes: capBytes, cost: cost, serve: serve, gated: gated, watermarkArmed: true}
}

// VM returns the destination VM this queue serves (-1 for the Rx ring and
// the Tx queue).
func (q *FlowQueue) VM() int { return q.vmID }

// Len returns the number of queued packets.
func (q *FlowQueue) Len() int { return len(q.pkts) }

// Bytes returns the current buffer occupancy in bytes.
func (q *FlowQueue) Bytes() int { return q.bytes }

// MaxBytes returns the high-water mark of buffer occupancy.
func (q *FlowQueue) MaxBytes() int { return q.maxBytes }

// Capacity returns the queue's buffer capacity in bytes.
func (q *FlowQueue) Capacity() int { return q.capBytes }

// Threads returns the number of worker threads serving the queue.
func (q *FlowQueue) Threads() int { return q.threads }

// PollInterval returns the queue's effective worker polling interval.
func (q *FlowQueue) PollInterval() sim.Time {
	if q.poll > 0 {
		return q.poll
	}
	return q.x.cfg.PollInterval
}

// Enqueued, Dequeued, and Dropped return lifetime packet counters.
func (q *FlowQueue) Enqueued() uint64 { return q.enq }

// Dequeued returns the number of packets the worker threads have serviced.
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

// workerLoop is one worker thread: pop a packet, pay the queue's service
// cost and hand the packet on, or poll again after the polling interval.
func (q *FlowQueue) workerLoop(id int) {
	if id >= q.threads {
		q.alive[id] = false // deallocated by a Tune action
		return
	}
	if q.gated && q.x.hostGate != nil && q.x.hostGate() {
		// Host message ring full: hold the descriptor in DRAM and re-poll.
		q.x.sim.After(q.PollInterval(), func() { q.workerLoop(id) })
		return
	}
	p := q.pop()
	if p == nil {
		q.x.sim.After(q.PollInterval(), func() { q.workerLoop(id) })
		return
	}
	q.x.sim.After(q.x.scaledCost(q.cost), func() {
		q.serve(p)
		q.workerLoop(id)
	})
}
