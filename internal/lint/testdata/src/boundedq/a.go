package boundedq

// Unguarded growth of a queue-named field: the canonical finding.
type leaky struct {
	queue []int
}

func (l *leaky) add(v int) {
	l.queue = append(l.queue, v) // want `append to queue-like field l.queue is unguarded`
}

// In-function guard on len of the same field: allowed.
type capped struct {
	waiting []int
	cap     int
}

func (c *capped) add(v int) bool {
	if len(c.waiting) >= c.cap {
		return false
	}
	c.waiting = append(c.waiting, v)
	return true
}

// In-function guard via a capacity-named companion quantity (the IXP
// FlowQueue pattern: bytes bounded, pkts rides along): allowed.
type byteBounded struct {
	pkts     []int
	bytes    int
	capBytes int
}

func (b *byteBounded) add(v, size int) bool {
	if b.bytes+size > b.capBytes {
		return false
	}
	b.pkts = append(b.pkts, v)
	b.bytes += size
	return true
}

// Bound enforced at a distance (the HostStack.RingFull pattern): the
// append site has no comparison, but another function in the package
// compares len of the same field — allowed.
type ring struct {
	rxBacklog []int
	staging   []int
	ringCap   int
}

func (r *ring) deliver(v int) {
	r.rxBacklog = append(r.rxBacklog, v)
}

func (r *ring) Full() bool { return len(r.rxBacklog)+len(r.staging) >= r.ringCap }

// A fullness-predicate call in the append's function is backpressure:
// allowed.
type gated struct {
	inbox []int
	r     *ring
}

func (g *gated) add(v int) bool {
	if g.r.Full() {
		return false
	}
	g.inbox = append(g.inbox, v)
	return true
}

// Emptiness tests are not bounds: len(q) == 0 does not guard growth.
type emptyChecked struct {
	backlog []int
}

func (e *emptyChecked) add(v int) {
	if len(e.backlog) == 0 {
		_ = v
	}
	e.backlog = append(e.backlog, v) // want `append to queue-like field e.backlog is unguarded`
}

// Non-queue-like names are out of scope.
type plain struct {
	items []int
}

func (p *plain) add(v int) {
	p.items = append(p.items, v)
}

// Local slices are out of scope: only fields carry state across events.
func local(vs []int) []int {
	var queue []int
	for _, v := range vs {
		queue = append(queue, v)
	}
	return queue
}
