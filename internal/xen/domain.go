// Package xen models the x86 scheduling island of the paper's prototype: a
// multicore host virtualized by a Xen-like hypervisor whose CPU resources
// are divided among domains (VMs) by the credit scheduler.
//
// The credit scheduler follows the published credit1 algorithm (Cherkasova,
// Gupta, Vahdat, "Comparison of the three CPU schedulers in Xen"): domain
// weights are converted into per-accounting-period credit allotments,
// running VCPUs burn credits in proportion to the CPU time they consume,
// credit balance determines the UNDER/OVER priority class, and VCPUs that
// wake with credit remaining receive the transient BOOST priority. The
// BOOST path is what the coordination layer's Trigger mechanism piggybacks
// on; the weight knob is what the Tune mechanism adjusts (via Ctl, the
// stand-in for the user-space "XenCtrl interface" of the paper).
package xen

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Priority is a VCPU's scheduling class. Higher values are scheduled first.
type Priority int

// Priority classes, in increasing precedence order.
const (
	PrioOver  Priority = iota // credits exhausted
	PrioUnder                 // credits remaining
	PrioBoost                 // just woken with credits remaining, or triggered
)

// String returns the conventional Xen name for the priority class.
func (p Priority) String() string {
	switch p {
	case PrioOver:
		return "OVER"
	case PrioUnder:
		return "UNDER"
	case PrioBoost:
		return "BOOST"
	default:
		return fmt.Sprintf("Priority(%d)", int(p))
	}
}

// vcpuState tracks where a VCPU is in its lifecycle.
type vcpuState int

const (
	stateBlocked vcpuState = iota
	stateRunnable
	stateRunning
	stateParked // cap enforcement
)

// Task is a unit of CPU demand executed by a domain, typically "process one
// request" or "decode one frame". OnComplete fires in simulation context
// when the demand has been fully consumed.
type Task struct {
	Demand     sim.Time // total CPU time required
	OnComplete func()   // optional completion callback
	Label      string   // optional, for tracing

	remaining sim.Time
	submitted sim.Time
}

// Submitted returns the virtual time at which the task entered the domain's
// queue.
func (t *Task) Submitted() sim.Time { return t.submitted }

// VCPU is a virtual CPU belonging to a domain.
type VCPU struct {
	dom   *Domain
	id    int
	state vcpuState
	prio  Priority

	credits   sim.Time // positive = UNDER, non-positive = OVER
	boostRan  sim.Time // time spent running at BOOST since promotion
	blockedAt sim.Time // when the VCPU last blocked
	affinity  []bool   // allowed PCPUs (nil = any); set via Ctl.PinVCPU
	pcpu      *PCPU    // non-nil while running
	runStart  sim.Time // when the current run interval began
	current   *Task    // task being executed
	sliceEv   *sim.Event
	queuedSeq uint64 // FIFO ordering within a priority class

	// freqResidue carries the remainder of the DVFS progress division
	// (units of MHz*ns, always < MaxFreqMHz) so scaled task retirement stays
	// exact across charge boundaries. Zero whenever the island runs at its
	// top frequency.
	freqResidue int64
}

// Domain returns the owning domain.
func (v *VCPU) Domain() *Domain { return v.dom }

// ID returns the VCPU index within its domain.
func (v *VCPU) ID() int { return v.id }

// Priority returns the VCPU's current priority class.
func (v *VCPU) Priority() Priority { return v.prio }

// Credits returns the VCPU's current credit balance, expressed as CPU time.
func (v *VCPU) Credits() sim.Time { return v.credits }

// Running reports whether the VCPU currently occupies a physical CPU.
func (v *VCPU) Running() bool { return v.state == stateRunning }

// AllowedOn reports whether the VCPU may run on physical CPU id.
func (v *VCPU) AllowedOn(pcpu int) bool {
	if v.affinity == nil {
		return true
	}
	return pcpu >= 0 && pcpu < len(v.affinity) && v.affinity[pcpu]
}

// Pinned reports whether the VCPU has a CPU affinity mask installed.
func (v *VCPU) Pinned() bool { return v.affinity != nil }

// Domain is a virtual machine: a weight/cap pair, one or more VCPUs, and a
// FIFO queue of CPU tasks that its VCPUs execute.
type Domain struct {
	hv     *Hypervisor
	id     int
	name   string
	weight int
	cap    int // percent of one CPU; 0 = uncapped
	vcpus  []*VCPU

	queue      []*Task
	meter      *stats.UtilizationMeter
	labelBusy  map[string]sim.Time // CPU time by task label (xentop-style breakdown)
	active     bool                // consumed CPU or was runnable since last accounting
	usedInAcct sim.Time            // CPU consumed during the current accounting period
	capDebt    sim.Time            // CPU consumed beyond the cap, not yet paid down

	tasksDone  uint64
	tasksTotal uint64
}

// ID returns the domain identifier assigned at creation (Dom0 is 0).
func (d *Domain) ID() int { return d.id }

// Name returns the domain's name.
func (d *Domain) Name() string { return d.name }

// Weight returns the domain's credit-scheduler weight.
func (d *Domain) Weight() int { return d.weight }

// Cap returns the domain's CPU cap in percent of one CPU (0 = uncapped).
func (d *Domain) Cap() int { return d.cap }

// VCPUs returns the domain's virtual CPUs.
func (d *Domain) VCPUs() []*VCPU { return d.vcpus }

// Meter returns the domain's CPU utilization meter.
func (d *Domain) Meter() *stats.UtilizationMeter { return d.meter }

// LabeledBusy returns a copy of the domain's CPU time broken down by task
// label — the simulation's analogue of the guest user/system split the
// paper inspects in its Figure 5 discussion (e.g. "net-rx" and "bridge"
// time on Dom0 versus application labels on guests).
func (d *Domain) LabeledBusy() map[string]sim.Time {
	out := make(map[string]sim.Time, len(d.labelBusy))
	for k, v := range d.labelBusy {
		out[k] = v
	}
	return out
}

// chargeLabel attributes consumed CPU to a task label.
func (d *Domain) chargeLabel(label string, t sim.Time) {
	if d.labelBusy == nil {
		d.labelBusy = make(map[string]sim.Time)
	}
	d.labelBusy[label] += t
}

// QueueLen returns the number of tasks waiting (excluding any task currently
// executing on a VCPU).
func (d *Domain) QueueLen() int { return len(d.queue) }

// TasksCompleted returns the number of tasks fully executed.
func (d *Domain) TasksCompleted() uint64 { return d.tasksDone }

// TasksSubmitted returns the number of tasks ever submitted.
func (d *Domain) TasksSubmitted() uint64 { return d.tasksTotal }

// Backlog returns the total unfinished CPU demand queued in the domain,
// including the remainder of any currently-executing tasks.
func (d *Domain) Backlog() sim.Time {
	var total sim.Time
	for _, t := range d.queue {
		total += t.remaining
	}
	for _, v := range d.vcpus {
		if v.current != nil {
			total += v.current.remaining
			if v.state == stateRunning {
				// Subtract progress made since the run interval began.
				total -= d.hv.runProgress(v, d.hv.sim.Now())
			}
		}
	}
	if total < 0 {
		total = 0
	}
	return total
}

// Submit queues a CPU task on the domain, waking a blocked VCPU if one
// exists. It panics on non-positive demand.
func (d *Domain) Submit(t *Task) {
	if t.Demand <= 0 {
		panic(fmt.Sprintf("xen: task %q with non-positive demand %v", t.Label, t.Demand))
	}
	t.remaining = t.Demand
	t.submitted = d.hv.sim.Now()
	d.queue = append(d.queue, t)
	d.tasksTotal++
	d.active = true
	d.hv.wakeOne(d)
}

// SubmitFunc is a convenience wrapper around Submit.
func (d *Domain) SubmitFunc(demand sim.Time, label string, onComplete func()) {
	d.Submit(&Task{Demand: demand, Label: label, OnComplete: onComplete})
}

// nextTask pops the head of the domain's task queue, or nil.
func (d *Domain) nextTask() *Task {
	if len(d.queue) == 0 {
		return nil
	}
	t := d.queue[0]
	copy(d.queue, d.queue[1:])
	d.queue[len(d.queue)-1] = nil
	d.queue = d.queue[:len(d.queue)-1]
	return t
}
