package xen

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Credit1 scheduler constants: Xen's 30ms quantum, 10ms credit-burn tick
// and 30ms credit re-allotment period. A woken VCPU may run at BOOST for
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
	current *VCPU
}

// ID returns the physical CPU index.
func (p *PCPU) ID() int { return p.id }

// Current returns the VCPU currently running on the PCPU, or nil when idle.
func (p *PCPU) Current() *VCPU { return p.current }

// Hypervisor is the x86 island's resource manager: it owns the physical
// CPUs, the domains, and the credit scheduler state.
type Hypervisor struct {
	sim     *sim.Simulator
	opts    Options
	pcpus   []*PCPU
	domains []*Domain

	// Runnable VCPUs, one FIFO per priority class (index = Priority).
	runq    [3][]*VCPU
	seq     uint64
	started bool

	// DVFS: freqMHz/MaxFreqMHz form the island-wide operating point as an
	// exact integer rational. Task progress retires at ran*freq/max
	// (per-VCPU residues keep the division exact across charge boundaries)
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

// Preemptions returns how many times a running VCPU was preempted by a
// higher-priority one.
func (hv *Hypervisor) Preemptions() uint64 { return hv.preemptions }

// Schedules returns how many VCPU dispatch decisions were made.
func (hv *Hypervisor) Schedules() uint64 { return hv.schedules }

// CreateDomain creates a domain with the given name, credit weight, and
// number of VCPUs. Domains are numbered in creation order starting at 0, so
// create the privileged control domain (Dom0) first.
func (hv *Hypervisor) CreateDomain(name string, weight, nvcpus int) *Domain {
	if weight <= 0 {
		panic(fmt.Sprintf("xen: domain %q with non-positive weight %d", name, weight))
	}
	if nvcpus <= 0 {
		panic(fmt.Sprintf("xen: domain %q with %d VCPUs", name, nvcpus))
	}
	d := &Domain{
		hv:     hv,
		id:     len(hv.domains),
		name:   name,
		weight: weight,
		meter:  stats.NewUtilizationMeter(name, hv.sim.Now()),
	}
	for i := 0; i < nvcpus; i++ {
		d.vcpus = append(d.vcpus, &VCPU{dom: d, id: i, state: stateBlocked, prio: PrioUnder})
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

// syncRunMeter folds the in-progress run interval of d's running VCPUs into
// the utilization meter so that sampling sees up-to-date numbers.
func (hv *Hypervisor) syncRunMeter(d *Domain) {
	now := hv.sim.Now()
	for _, v := range d.vcpus {
		if v.state == stateRunning && now > v.runStart {
			hv.chargeRun(v, now)
		}
	}
}

// chargeRun accounts the run interval [v.runStart, now) to the VCPU: burns
// credits, meters utilization, advances task progress, and restarts the
// interval clock at now.
func (hv *Hypervisor) chargeRun(v *VCPU, now sim.Time) {
	ran := now - v.runStart
	if ran <= 0 {
		return
	}
	v.credits -= ran
	v.dom.usedInAcct += ran
	v.dom.active = true
	v.dom.meter.Record(v.runStart, now)
	if v.prio == PrioBoost {
		v.boostRan += ran
	}
	if v.current != nil {
		v.dom.chargeLabel(v.current.Label, ran)
	}
	if v.current != nil {
		progress := ran
		if hv.freqMHz != MaxFreqMHz {
			// Scaled retirement: carry the division remainder in the VCPU's
			// residue so progress is exact across charge boundaries.
			num := int64(ran)*hv.freqMHz + v.freqResidue
			progress = sim.Time(num / MaxFreqMHz)
			v.freqResidue = num % MaxFreqMHz
		}
		v.current.remaining -= progress
		if v.current.remaining < 0 {
			v.current.remaining = 0
		}
	}
	v.runStart = now
}

// runProgress returns the task progress of v's in-flight run interval at
// now without committing it (the read-only view Backlog needs).
func (hv *Hypervisor) runProgress(v *VCPU, now sim.Time) sim.Time {
	ran := now - v.runStart
	if ran <= 0 {
		return 0
	}
	if hv.freqMHz == MaxFreqMHz {
		return ran
	}
	return sim.Time((int64(ran)*hv.freqMHz + v.freqResidue) / MaxFreqMHz)
}

// wallFor returns the wall-clock time v needs on a PCPU to retire its
// current task's remaining demand at the island's operating frequency: the
// smallest interval whose scaled progress covers the remainder.
func (hv *Hypervisor) wallFor(v *VCPU) sim.Time {
	rem := v.current.remaining
	if hv.freqMHz == MaxFreqMHz {
		return rem
	}
	num := int64(rem)*MaxFreqMHz - v.freqResidue
	if num <= 0 {
		return 1
	}
	return sim.Time((num + hv.freqMHz - 1) / hv.freqMHz)
}

// FrequencyMHz returns the island's current operating frequency.
func (hv *Hypervisor) FrequencyMHz() int { return int(hv.freqMHz) }

// setFrequency commits a new island-wide operating frequency: every
// in-progress run interval is charged at the old frequency first, then the
// running VCPUs' slice events are re-armed at the new retirement rate.
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
		v := p.current
		if v == nil || v.current == nil {
			continue
		}
		if v.sliceEv != nil {
			v.sliceEv.Cancel()
			v.sliceEv = nil
		}
		hv.armSliceEvent(p, v)
	}
	return nil
}

// enqueue inserts a runnable VCPU at the tail of its priority class.
func (hv *Hypervisor) enqueue(v *VCPU) {
	v.state = stateRunnable
	v.queuedSeq = hv.seq
	hv.seq++
	hv.runq[v.prio] = append(hv.runq[v.prio], v)
}

// dequeue removes v from the runqueue, if present.
func (hv *Hypervisor) dequeue(v *VCPU) {
	q := hv.runq[v.prio]
	for i, x := range q {
		if x == v {
			copy(q[i:], q[i+1:])
			q[len(q)-1] = nil
			hv.runq[v.prio] = q[:len(q)-1]
			return
		}
	}
}

// bestQueued returns the highest-priority queued VCPU without removing it.
func (hv *Hypervisor) bestQueued() *VCPU {
	for p := int(PrioBoost); p >= int(PrioOver); p-- {
		if len(hv.runq[p]) > 0 {
			return hv.runq[p][0]
		}
	}
	return nil
}

// popBestFor removes and returns the highest-priority queued VCPU allowed
// to run on PCPU p, or nil.
func (hv *Hypervisor) popBestFor(p *PCPU) *VCPU {
	for pr := int(PrioBoost); pr >= int(PrioOver); pr-- {
		q := hv.runq[pr]
		for i, v := range q {
			if !v.AllowedOn(p.id) {
				continue
			}
			copy(q[i:], q[i+1:])
			q[len(q)-1] = nil
			hv.runq[pr] = q[:len(q)-1]
			return v
		}
	}
	return nil
}

// dispatch fills idle PCPUs from the runqueue, honoring affinity.
func (hv *Hypervisor) dispatch() {
	for _, p := range hv.pcpus {
		if p.current != nil {
			continue
		}
		v := hv.popBestFor(p)
		if v == nil {
			continue
		}
		hv.startRun(p, v)
	}
}

// startRun puts v on PCPU p and schedules its next natural stop point
// (timeslice expiry or current-task completion).
func (hv *Hypervisor) startRun(p *PCPU, v *VCPU) {
	hv.schedules++
	p.current = v
	v.pcpu = p
	v.state = stateRunning
	v.runStart = hv.sim.Now()
	if v.current == nil {
		v.current = v.dom.nextTask()
	}
	if v.current == nil {
		// Nothing to do after all; block immediately.
		hv.blockCurrent(p)
		return
	}
	hv.armSliceEvent(p, v)
}

// armSliceEvent schedules the earlier of task completion and slice expiry.
func (hv *Hypervisor) armSliceEvent(p *PCPU, v *VCPU) {
	runFor := timeslice
	if need := hv.wallFor(v); need < runFor {
		runFor = need
	}
	if runFor <= 0 {
		runFor = 1 // degenerate: finish on the next instant
	}
	v.sliceEv = hv.sim.After(runFor, func() { hv.sliceExpired(p, v) })
}

// sliceExpired handles the natural end of a run interval.
func (hv *Hypervisor) sliceExpired(p *PCPU, v *VCPU) {
	if p.current != v {
		return // stale event (should have been cancelled)
	}
	now := hv.sim.Now()
	hv.chargeRun(v, now)
	v.sliceEv = nil

	// Complete as many tasks as finished exactly here.
	if v.current != nil && v.current.remaining == 0 {
		hv.completeTask(v)
	}
	if v.current == nil {
		v.current = v.dom.nextTask()
	}
	if v.current == nil {
		hv.blockCurrent(p)
		return
	}
	// Timeslice used up (or more work remains): recompute priority, requeue
	// at the tail, and let the scheduler pick the next VCPU.
	hv.deschedule(p, v)
	hv.dispatch()
}

// completeTask finishes v's current task. The completion callback is
// deferred to a fresh event: callbacks submit work to other domains, which
// can preempt the very PCPU whose scheduling operation is still in
// progress, so running them synchronously here would corrupt scheduler
// state mid-operation.
func (hv *Hypervisor) completeTask(v *VCPU) {
	t := v.current
	v.current = nil
	v.dom.tasksDone++
	if t.OnComplete != nil {
		hv.sim.After(0, t.OnComplete)
	}
}

// deschedule removes v from its PCPU and requeues it as runnable.
func (hv *Hypervisor) deschedule(p *PCPU, v *VCPU) {
	p.current = nil
	v.pcpu = nil
	hv.refreshPriority(v)
	hv.enqueue(v)
}

// blockCurrent blocks the VCPU running on p (its domain queue is empty) and
// dispatches a replacement.
func (hv *Hypervisor) blockCurrent(p *PCPU) {
	v := p.current
	p.current = nil
	v.pcpu = nil
	v.state = stateBlocked
	v.blockedAt = hv.sim.Now()
	v.boostRan = 0
	if v.sliceEv != nil {
		v.sliceEv.Cancel()
		v.sliceEv = nil
	}
	hv.dispatch()
}

// refreshPriority recomputes a non-boosted VCPU's class from its credit
// balance, and demotes BOOST VCPUs that have used their boost window.
func (hv *Hypervisor) refreshPriority(v *VCPU) {
	if v.prio == PrioBoost && v.boostRan < boostWindow {
		return // still within its boost window
	}
	v.boostRan = 0
	if v.credits >= 0 {
		v.prio = PrioUnder
	} else {
		v.prio = PrioOver
	}
}

// wakeOne wakes a blocked VCPU of d, if any, applying BOOST semantics.
func (hv *Hypervisor) wakeOne(d *Domain) {
	for _, v := range d.vcpus {
		if v.state != stateBlocked {
			continue
		}
		switch {
		case v.credits >= 0 && hv.sim.Now() > v.blockedAt:
			// Waking from a real sleep with credit remaining earns the
			// transient BOOST class (idle domains hold at zero credits and
			// still qualify, matching credit1's treatment of inactive
			// domains). Zero-duration blocks — a domain picking up
			// back-to-back work — do not count as sleeping and keep their
			// credit-derived priority, as they would on real hardware where
			// the guest never actually idles.
			v.prio = PrioBoost
			v.boostRan = 0
		case v.credits >= 0:
			v.prio = PrioUnder
		default:
			v.prio = PrioOver
		}
		hv.enqueue(v)
		hv.maybePreempt()
		return
	}
}

// Boost promotes a domain's VCPUs to BOOST priority immediately, preempting
// lower-priority VCPUs. This implements the preemptive half of the paper's
// Trigger mechanism on the x86 island ("boost the dequeuing guest VM's
// position in the runqueue").
func (hv *Hypervisor) Boost(d *Domain) {
	for _, v := range d.vcpus {
		switch v.state {
		case stateRunnable:
			hv.dequeue(v)
			v.prio = PrioBoost
			v.boostRan = 0
			hv.enqueue(v)
		case stateBlocked, stateRunning:
			// A blocked VCPU will be boosted on wake by its credit balance;
			// force it regardless of credits by pre-setting priority.
			v.prio = PrioBoost
			v.boostRan = 0
		case stateParked:
			// Cap enforcement outranks a boost: a parked VCPU stays parked
			// until its domain drops back under its cap.
		}
	}
	hv.maybePreempt()
}

// maybePreempt preempts the lowest-priority running VCPU if a queued VCPU
// outranks it, honoring the queued VCPU's affinity.
func (hv *Hypervisor) maybePreempt() {
	for {
		hv.dispatch() // place onto any idle PCPUs first
		best := hv.bestQueued()
		if best == nil {
			return
		}
		// Find the weakest running VCPU among the PCPUs best may use.
		var victim *PCPU
		for _, p := range hv.pcpus {
			if p.current == nil || !best.AllowedOn(p.id) {
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

// preempt stops the VCPU running on p and requeues it.
func (hv *Hypervisor) preempt(p *PCPU) {
	v := p.current
	hv.preemptions++
	hv.chargeRun(v, hv.sim.Now())
	if v.sliceEv != nil {
		v.sliceEv.Cancel()
		v.sliceEv = nil
	}
	if v.current != nil && v.current.remaining == 0 {
		hv.completeTask(v)
	}
	hv.deschedule(p, v)
	hv.dispatch()
}

// tick is the 10ms credit-burn tick: it charges running VCPUs, demotes those
// that ran out of credits or out of their boost window, and preempts if the
// queue now holds higher-priority work.
func (hv *Hypervisor) tick() {
	now := hv.sim.Now()
	for _, p := range hv.pcpus {
		v := p.current
		if v == nil {
			continue
		}
		hv.chargeRun(v, now)
		if v.current != nil && v.current.remaining == 0 {
			// Task finished exactly on the tick; complete it and continue
			// with the next one within the same slice.
			if v.sliceEv != nil {
				v.sliceEv.Cancel()
				v.sliceEv = nil
			}
			hv.completeTask(v)
			v.current = v.dom.nextTask()
			if v.current == nil {
				hv.blockCurrent(p)
				continue
			}
			hv.armSliceEvent(p, v)
		}
		old := v.prio
		hv.refreshPriority(v)
		if v.prio != old && v.prio < old {
			// Demoted while running: check whether someone now outranks it.
			if best := hv.bestQueued(); best != nil && best.prio > v.prio {
				hv.preempt(p)
			}
		}
	}
	hv.maybePreempt()
}

// account is the 30ms credit re-allotment: each active domain receives
// credits proportional to its weight, split evenly among its VCPUs, with
// balances clamped to one accounting period. Capped domains that exceeded
// their cap are parked until the next accounting.
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
			share := sim.Time(float64(budget) * float64(d.weight) / float64(totalWeight))
			if d.cap > 0 {
				capShare := acctPeriod * sim.Time(d.cap) / 100
				if share > capShare {
					share = capShare
				}
			}
			per := share / sim.Time(len(d.vcpus))
			for _, v := range d.vcpus {
				v.credits += per
				if v.credits > clamp {
					v.credits = clamp
				}
				if v.credits < -clamp {
					v.credits = -clamp
				}
			}
		}

		// Cap enforcement: track the domain's overrun as a debt that is paid
		// down at cap-rate while parked, so the long-run average honors the
		// cap even though parking granularity is one accounting period.
		if d.cap > 0 {
			capTime := acctPeriod * sim.Time(d.cap) / 100
			d.capDebt += d.usedInAcct - capTime
			if d.capDebt < 0 {
				d.capDebt = 0
			}
			if d.capDebt > 0 {
				hv.parkDomain(d)
			} else {
				hv.unparkDomain(d)
			}
		}
		d.usedInAcct = 0
		d.active = false
		for _, v := range d.vcpus {
			if v.state != stateBlocked && v.state != stateParked {
				d.active = true
			}
		}
	}

	// Re-sort queued VCPUs into their refreshed priority classes.
	var queued []*VCPU
	for p := range hv.runq {
		queued = append(queued, hv.runq[p]...)
		hv.runq[p] = hv.runq[p][:0]
	}
	for _, v := range queued {
		hv.refreshPriority(v)
		hv.enqueue(v)
	}
	hv.maybePreempt()
}

// parkDomain removes a domain's VCPUs from scheduling (cap exceeded).
func (hv *Hypervisor) parkDomain(d *Domain) {
	for _, v := range d.vcpus {
		switch v.state {
		case stateRunnable:
			hv.dequeue(v)
			v.state = stateParked
		case stateRunning:
			p := v.pcpu
			hv.chargeRun(v, hv.sim.Now())
			if v.sliceEv != nil {
				v.sliceEv.Cancel()
				v.sliceEv = nil
			}
			p.current = nil
			v.pcpu = nil
			v.state = stateParked
			hv.dispatch()
		case stateBlocked, stateParked:
			// Not on a runqueue or a PCPU; there is nothing to remove. A
			// blocked VCPU that wakes while the domain is over cap runs
			// until the next accounting period parks it again.
		}
	}
}

// unparkDomain returns parked VCPUs to the runqueue.
func (hv *Hypervisor) unparkDomain(d *Domain) {
	woke := false
	for _, v := range d.vcpus {
		if v.state == stateParked {
			if v.current != nil || len(d.queue) > 0 {
				hv.refreshPriority(v)
				hv.enqueue(v)
				woke = true
			} else {
				v.state = stateBlocked
			}
		}
	}
	if woke {
		hv.maybePreempt()
	}
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
