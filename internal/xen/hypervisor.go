package xen

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Credit1 scheduler constants: Xen's 30ms quantum, 10ms credit-burn tick
// and 30ms credit re-allotment period. A woken domain may run at BOOST for
// one tick before demotion.
const (
	timeslice   = 30 * sim.Millisecond
	tickPeriod  = 10 * sim.Millisecond
	acctPeriod  = 30 * sim.Millisecond
	boostWindow = 10 * sim.Millisecond
)

// MaxFreqMHz is the top DVFS operating frequency of the paper's 2.66 GHz
// Xeon host — the state the island boots in and the anchor for the
// dynamic-power scaling of derived operating points.
const MaxFreqMHz = 2666

// Options configures the hypervisor. Zero fields take the defaults matching
// the paper's dual-core host.
type Options struct {
	NumPCPUs     int      // physical CPUs (default 2)
	SamplePeriod sim.Time // utilization sampling period (default 1s; 0 disables)
}

func (o *Options) applyDefaults() {
	if o.NumPCPUs == 0 {
		o.NumPCPUs = 2
	}
	if o.SamplePeriod == 0 {
		o.SamplePeriod = sim.Second
	}
}

// PCPU is a physical CPU of the host.
type PCPU struct {
	id      int
	current *Domain
}

// ID returns the physical CPU index.
func (p *PCPU) ID() int { return p.id }

// Current returns the domain currently running on the PCPU, or nil when idle.
func (p *PCPU) Current() *Domain { return p.current }

// Hypervisor is the x86 island's resource manager: it owns the physical
// CPUs, the domains, and the credit scheduler state.
type Hypervisor struct {
	sim     *sim.Simulator
	opts    Options
	pcpus   []*PCPU
	domains []*Domain

	// Runnable domains, one FIFO per priority class (index = Priority).
	runq    [3][]*Domain
	started bool

	// DVFS: freqMHz/MaxFreqMHz form the island-wide operating point as an
	// exact integer rational. Task progress retires at ran*freq/max
	// (per-domain residues keep the division exact across charge boundaries)
	// while credits and utilization always burn wall-clock time; at
	// freqMHz == MaxFreqMHz the arithmetic reduces to the unscaled identity
	// byte-for-byte.
	//lint:decision
	freqMHz int64

	stopFns []func()

	preemptions uint64
	schedules   uint64
}

// New creates a hypervisor on the given simulator. Call Start after creating
// the initial domains.
func New(s *sim.Simulator, opts Options) *Hypervisor {
	opts.applyDefaults()
	hv := &Hypervisor{sim: s, opts: opts, freqMHz: MaxFreqMHz}
	for i := 0; i < opts.NumPCPUs; i++ {
		hv.pcpus = append(hv.pcpus, &PCPU{id: i})
	}
	return hv
}

// Simulator returns the driving simulator.
func (hv *Hypervisor) Simulator() *sim.Simulator { return hv.sim }

// Options returns the active (defaulted) configuration.
func (hv *Hypervisor) Options() Options { return hv.opts }

// PCPUs returns the physical CPUs.
func (hv *Hypervisor) PCPUs() []*PCPU { return hv.pcpus }

// Domains returns all domains in creation order (Dom0 first, if created
// first).
func (hv *Hypervisor) Domains() []*Domain { return hv.domains }

// Preemptions returns how many times a running domain was preempted by a
// higher-priority one.
func (hv *Hypervisor) Preemptions() uint64 { return hv.preemptions }

// Schedules returns how many dispatch decisions were made.
func (hv *Hypervisor) Schedules() uint64 { return hv.schedules }

// CreateDomain creates a single-VCPU domain with the given name and credit
// weight. Domains are numbered in creation order starting at 0, so create
// the privileged control domain (Dom0) first.
func (hv *Hypervisor) CreateDomain(name string, weight int) *Domain {
	if weight <= 0 {
		panic(fmt.Sprintf("xen: domain %q with non-positive weight %d", name, weight))
	}
	d := &Domain{
		hv:     hv,
		id:     len(hv.domains),
		name:   name,
		weight: weight,
		state:  stateBlocked,
		prio:   PrioUnder,
		meter:  stats.NewUtilizationMeter(name, hv.sim.Now()),
	}
	hv.domains = append(hv.domains, d)
	return d
}

// DomainByName returns the domain with the given name, or nil.
func (hv *Hypervisor) DomainByName(name string) *Domain {
	for _, d := range hv.domains {
		if d.name == name {
			return d
		}
	}
	return nil
}

// Start arms the scheduler's periodic timers (credit ticks, accounting,
// utilization sampling). It must be called exactly once.
func (hv *Hypervisor) Start() {
	if hv.started {
		panic("xen: Start called twice")
	}
	hv.started = true
	hv.stopFns = append(hv.stopFns,
		hv.sim.Ticker(tickPeriod, hv.tick),
		hv.sim.Ticker(acctPeriod, hv.account),
	)
	if hv.opts.SamplePeriod > 0 {
		hv.stopFns = append(hv.stopFns, hv.sim.Ticker(hv.opts.SamplePeriod, func() {
			now := hv.sim.Now()
			for _, d := range hv.domains {
				hv.syncRunMeter(d)
				d.meter.Sample(now)
			}
		}))
	}
}

// Stop cancels the scheduler's periodic timers (used by short-lived tests).
func (hv *Hypervisor) Stop() {
	for _, fn := range hv.stopFns {
		fn()
	}
	hv.stopFns = nil
}

// syncRunMeter folds d's in-progress run interval, if running, into the
// utilization meter so that sampling sees up-to-date numbers.
func (hv *Hypervisor) syncRunMeter(d *Domain) {
	if now := hv.sim.Now(); d.state == stateRunning && now > d.runStart {
		hv.chargeRun(d, now)
	}
}

// chargeRun accounts the run interval [d.runStart, now) to the domain:
// burns credits, meters utilization, advances task progress, and restarts
// the interval clock at now.
func (hv *Hypervisor) chargeRun(d *Domain, now sim.Time) {
	ran := now - d.runStart
	if ran <= 0 {
		return
	}
	d.credits -= ran
	d.active = true
	d.meter.Record(d.runStart, now)
	if d.prio == PrioBoost {
		d.boostRan += ran
	}
	if d.current != nil {
		d.chargeLabel(d.current.Label, ran)
		progress := ran
		if hv.freqMHz != MaxFreqMHz {
			// Scaled retirement: carry the division remainder in the
			// domain's residue so progress is exact across charge
			// boundaries.
			num := int64(ran)*hv.freqMHz + d.freqResidue
			progress = sim.Time(num / MaxFreqMHz)
			d.freqResidue = num % MaxFreqMHz
		}
		d.current.remaining -= progress
		if d.current.remaining < 0 {
			d.current.remaining = 0
		}
	}
	d.runStart = now
}

// runProgress returns the task progress of d's in-flight run interval at
// now without committing it (the read-only view Backlog needs).
func (hv *Hypervisor) runProgress(d *Domain, now sim.Time) sim.Time {
	ran := now - d.runStart
	if ran <= 0 {
		return 0
	}
	if hv.freqMHz == MaxFreqMHz {
		return ran
	}
	return sim.Time((int64(ran)*hv.freqMHz + d.freqResidue) / MaxFreqMHz)
}

// wallFor returns the wall-clock time d needs on a PCPU to retire its
// current task's remaining demand at the island's operating frequency: the
// smallest interval whose scaled progress covers the remainder.
func (hv *Hypervisor) wallFor(d *Domain) sim.Time {
	rem := d.current.remaining
	if hv.freqMHz == MaxFreqMHz {
		return rem
	}
	num := int64(rem)*MaxFreqMHz - d.freqResidue
	if num <= 0 {
		return 1
	}
	return sim.Time((num + hv.freqMHz - 1) / hv.freqMHz)
}

// FrequencyMHz returns the island's current operating frequency.
func (hv *Hypervisor) FrequencyMHz() int { return int(hv.freqMHz) }

// setFrequency commits a new island-wide operating frequency: every
// in-progress run interval is charged at the old frequency first, then the
// running domains' slice events are re-armed at the new retirement rate.
// Actuate through Ctl.SetFrequencyMHz, which taps the transition into the
// flight recorder.
func (hv *Hypervisor) setFrequency(mhz int) error {
	if mhz <= 0 || int64(mhz) > MaxFreqMHz {
		return fmt.Errorf("xen: frequency %d MHz outside (0, %d]", mhz, MaxFreqMHz)
	}
	if int64(mhz) == hv.freqMHz {
		return nil
	}
	now := hv.sim.Now()
	for _, p := range hv.pcpus {
		if p.current != nil {
			hv.chargeRun(p.current, now)
		}
	}
	hv.freqMHz = int64(mhz)
	for _, p := range hv.pcpus {
		d := p.current
		if d == nil || d.current == nil {
			continue
		}
		if d.sliceEv != nil {
			d.sliceEv.Cancel()
			d.sliceEv = nil
		}
		hv.armSliceEvent(p, d)
	}
	return nil
}

// enqueue inserts a runnable domain at the tail of its priority class.
func (hv *Hypervisor) enqueue(d *Domain) {
	d.state = stateRunnable
	hv.runq[d.prio] = append(hv.runq[d.prio], d)
}

// dequeue removes d from the runqueue, if present.
func (hv *Hypervisor) dequeue(d *Domain) {
	q := hv.runq[d.prio]
	for i, x := range q {
		if x == d {
			copy(q[i:], q[i+1:])
			q[len(q)-1] = nil
			hv.runq[d.prio] = q[:len(q)-1]
			return
		}
	}
}

// bestQueued returns the highest-priority queued domain without removing it.
func (hv *Hypervisor) bestQueued() *Domain {
	for p := int(PrioBoost); p >= int(PrioOver); p-- {
		if len(hv.runq[p]) > 0 {
			return hv.runq[p][0]
		}
	}
	return nil
}

// popBest removes and returns the highest-priority queued domain, or nil.
func (hv *Hypervisor) popBest() *Domain {
	for pr := int(PrioBoost); pr >= int(PrioOver); pr-- {
		if q := hv.runq[pr]; len(q) > 0 {
			d := q[0]
			copy(q, q[1:])
			q[len(q)-1] = nil
			hv.runq[pr] = q[:len(q)-1]
			return d
		}
	}
	return nil
}

// dispatch fills idle PCPUs from the runqueue.
func (hv *Hypervisor) dispatch() {
	for _, p := range hv.pcpus {
		if p.current != nil {
			continue
		}
		d := hv.popBest()
		if d == nil {
			return
		}
		hv.startRun(p, d)
	}
}

// startRun puts d on PCPU p and schedules its next natural stop point
// (timeslice expiry or current-task completion).
func (hv *Hypervisor) startRun(p *PCPU, d *Domain) {
	hv.schedules++
	p.current = d
	d.state = stateRunning
	d.runStart = hv.sim.Now()
	if d.current == nil {
		d.current = d.nextTask()
	}
	if d.current == nil {
		// Nothing to do after all; block immediately.
		hv.blockCurrent(p)
		return
	}
	hv.armSliceEvent(p, d)
}

// armSliceEvent schedules the earlier of task completion and slice expiry.
func (hv *Hypervisor) armSliceEvent(p *PCPU, d *Domain) {
	runFor := timeslice
	if need := hv.wallFor(d); need < runFor {
		runFor = need
	}
	if runFor <= 0 {
		runFor = 1 // degenerate: finish on the next instant
	}
	d.sliceEv = hv.sim.After(runFor, func() { hv.sliceExpired(p, d) })
}

// sliceExpired handles the natural end of a run interval.
func (hv *Hypervisor) sliceExpired(p *PCPU, d *Domain) {
	if p.current != d {
		return // stale event (should have been cancelled)
	}
	now := hv.sim.Now()
	hv.chargeRun(d, now)
	d.sliceEv = nil

	// Complete as many tasks as finished exactly here.
	if d.current != nil && d.current.remaining == 0 {
		hv.completeTask(d)
	}
	if d.current == nil {
		d.current = d.nextTask()
	}
	if d.current == nil {
		hv.blockCurrent(p)
		return
	}
	// Timeslice used up (or more work remains): recompute priority, requeue
	// at the tail, and let the scheduler pick the next domain.
	hv.deschedule(p, d)
	hv.dispatch()
}

// completeTask finishes d's current task. The completion callback is
// deferred to a fresh event: callbacks submit work to other domains, which
// can preempt the very PCPU whose scheduling operation is still in
// progress, so running them synchronously here would corrupt scheduler
// state mid-operation.
func (hv *Hypervisor) completeTask(d *Domain) {
	t := d.current
	d.current = nil
	d.tasksDone++
	if t.OnComplete != nil {
		hv.sim.After(0, t.OnComplete)
	}
}

// deschedule removes d from its PCPU and requeues it as runnable.
func (hv *Hypervisor) deschedule(p *PCPU, d *Domain) {
	p.current = nil
	hv.refreshPriority(d)
	hv.enqueue(d)
}

// blockCurrent blocks the domain running on p (its task queue is empty) and
// dispatches a replacement.
func (hv *Hypervisor) blockCurrent(p *PCPU) {
	d := p.current
	p.current = nil
	d.state = stateBlocked
	d.blockedAt = hv.sim.Now()
	d.boostRan = 0
	if d.sliceEv != nil {
		d.sliceEv.Cancel()
		d.sliceEv = nil
	}
	hv.dispatch()
}

// refreshPriority recomputes a non-boosted domain's class from its credit
// balance, and demotes BOOST domains that have used their boost window.
func (hv *Hypervisor) refreshPriority(d *Domain) {
	if d.prio == PrioBoost && d.boostRan < boostWindow {
		return // still within its boost window
	}
	d.boostRan = 0
	if d.credits >= 0 {
		d.prio = PrioUnder
	} else {
		d.prio = PrioOver
	}
}

// wake makes a blocked domain runnable, applying BOOST semantics.
func (hv *Hypervisor) wake(d *Domain) {
	if d.state != stateBlocked {
		return
	}
	switch {
	case d.credits >= 0 && hv.sim.Now() > d.blockedAt:
		// Waking from a real sleep with credit remaining earns the
		// transient BOOST class (idle domains hold at zero credits and
		// still qualify, matching credit1's treatment of inactive
		// domains). Zero-duration blocks — a domain picking up
		// back-to-back work — do not count as sleeping and keep their
		// credit-derived priority, as they would on real hardware where
		// the guest never actually idles.
		d.prio = PrioBoost
		d.boostRan = 0
	case d.credits >= 0:
		d.prio = PrioUnder
	default:
		d.prio = PrioOver
	}
	hv.enqueue(d)
	hv.maybePreempt()
}

// Boost promotes a domain to BOOST priority immediately, preempting
// lower-priority domains. This implements the preemptive half of the
// paper's Trigger mechanism on the x86 island ("boost the dequeuing guest
// VM's position in the runqueue").
func (hv *Hypervisor) Boost(d *Domain) {
	if d.state == stateRunnable {
		hv.dequeue(d)
		d.prio = PrioBoost
		d.boostRan = 0
		hv.enqueue(d)
	} else {
		// A blocked domain will be boosted on wake by its credit balance;
		// force it regardless of credits by pre-setting priority.
		d.prio = PrioBoost
		d.boostRan = 0
	}
	hv.maybePreempt()
}

// maybePreempt preempts the lowest-priority running domain while a queued
// domain outranks it.
func (hv *Hypervisor) maybePreempt() {
	for {
		hv.dispatch() // place onto any idle PCPUs first
		best := hv.bestQueued()
		if best == nil {
			return
		}
		var victim *PCPU
		for _, p := range hv.pcpus {
			if p.current == nil {
				continue
			}
			if victim == nil || p.current.prio < victim.current.prio {
				victim = p
			}
		}
		if victim == nil || victim.current.prio >= best.prio {
			return
		}
		hv.preempt(victim)
	}
}

// preempt stops the domain running on p and requeues it.
func (hv *Hypervisor) preempt(p *PCPU) {
	d := p.current
	hv.preemptions++
	hv.chargeRun(d, hv.sim.Now())
	if d.sliceEv != nil {
		d.sliceEv.Cancel()
		d.sliceEv = nil
	}
	if d.current != nil && d.current.remaining == 0 {
		hv.completeTask(d)
	}
	hv.deschedule(p, d)
	hv.dispatch()
}

// tick is the 10ms credit-burn tick: it charges running domains, demotes
// those that ran out of credits or out of their boost window, and preempts
// if the queue now holds higher-priority work.
func (hv *Hypervisor) tick() {
	now := hv.sim.Now()
	for _, p := range hv.pcpus {
		d := p.current
		if d == nil {
			continue
		}
		hv.chargeRun(d, now)
		if d.current != nil && d.current.remaining == 0 {
			// Task finished exactly on the tick; complete it and continue
			// with the next one within the same slice.
			if d.sliceEv != nil {
				d.sliceEv.Cancel()
				d.sliceEv = nil
			}
			hv.completeTask(d)
			d.current = d.nextTask()
			if d.current == nil {
				hv.blockCurrent(p)
				continue
			}
			hv.armSliceEvent(p, d)
		}
		old := d.prio
		hv.refreshPriority(d)
		if d.prio < old {
			// Demoted while running: check whether someone now outranks it.
			if best := hv.bestQueued(); best != nil && best.prio > d.prio {
				hv.preempt(p)
			}
		}
	}
	hv.maybePreempt()
}

// account is the 30ms credit re-allotment: each active domain receives
// credits proportional to its weight, with balances clamped to one
// accounting period.
func (hv *Hypervisor) account() {
	now := hv.sim.Now()
	// Charge in-progress runs so balances are current.
	for _, p := range hv.pcpus {
		if p.current != nil {
			hv.chargeRun(p.current, now)
		}
	}

	totalWeight := 0
	for _, d := range hv.domains {
		if d.active {
			totalWeight += d.weight
		}
	}
	budget := acctPeriod * sim.Time(hv.opts.NumPCPUs)
	clamp := acctPeriod

	for _, d := range hv.domains {
		if d.active && totalWeight > 0 {
			d.credits += sim.Time(float64(budget) * float64(d.weight) / float64(totalWeight))
			if d.credits > clamp {
				d.credits = clamp
			}
			if d.credits < -clamp {
				d.credits = -clamp
			}
		}
		d.active = d.state != stateBlocked
	}

	// Re-sort queued domains into their refreshed priority classes.
	var queued []*Domain
	for p := range hv.runq {
		queued = append(queued, hv.runq[p]...)
		hv.runq[p] = hv.runq[p][:0]
	}
	for _, d := range queued {
		hv.refreshPriority(d)
		hv.enqueue(d)
	}
	hv.maybePreempt()
}

// TotalUtilization returns the summed mean CPU utilization (percent of one
// CPU) of the given domains over [start, now). Pass all guest domains to get
// the paper's Figure 5 / Table 2 "CPU utilization" figure.
func (hv *Hypervisor) TotalUtilization(start sim.Time, domains ...*Domain) float64 {
	now := hv.sim.Now()
	total := 0.0
	for _, d := range domains {
		hv.syncRunMeter(d)
		total += d.meter.MeanUtilization(start, now)
	}
	return total
}
