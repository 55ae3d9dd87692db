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
//
// Every domain has exactly one VCPU, as every guest and Dom0 of the paper's
// dual-core Xeon does, so a Domain carries its VCPU's scheduling state
// itself and the runqueues and physical CPUs hold domains directly.
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

// Domain is a virtual machine: a credit weight, its single VCPU's
// scheduling state, and a FIFO queue of CPU tasks that the VCPU executes.
type Domain struct {
	hv     *Hypervisor
	id     int
	name   string
	weight int

	state     vcpuState
	prio      Priority
	credits   sim.Time // positive = UNDER, non-positive = OVER
	boostRan  sim.Time // time spent running at BOOST since promotion
	blockedAt sim.Time // when the VCPU last blocked
	runStart  sim.Time // when the current run interval began
	current   *Task    // task being executed
	sliceEv   *sim.Event

	// freqResidue carries the remainder of the DVFS progress division
	// (units of MHz*ns, always < MaxFreqMHz) so scaled task retirement stays
	// exact across charge boundaries. Zero whenever the island runs at its
	// top frequency.
	freqResidue int64

	queue     []*Task
	meter     *stats.UtilizationMeter
	labelBusy map[string]sim.Time // CPU time by task label (xentop-style breakdown)
	active    bool                // consumed CPU or was runnable since last accounting

	tasksDone  uint64
	tasksTotal uint64
}

// ID returns the domain identifier assigned at creation (Dom0 is 0).
func (d *Domain) ID() int { return d.id }

// Name returns the domain's name.
func (d *Domain) Name() string { return d.name }

// Weight returns the domain's credit-scheduler weight.
func (d *Domain) Weight() int { return d.weight }

// Priority returns the VCPU's current priority class.
func (d *Domain) Priority() Priority { return d.prio }

// Credits returns the VCPU's current credit balance, expressed as CPU time.
func (d *Domain) Credits() sim.Time { return d.credits }

// Running reports whether the VCPU currently occupies a physical CPU.
func (d *Domain) Running() bool { return d.state == stateRunning }

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
// executing on the VCPU).
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
	if d.current != nil {
		total += d.current.remaining
		if d.state == stateRunning {
			// Subtract progress made since the run interval began.
			total -= d.hv.runProgress(d, d.hv.sim.Now())
		}
	}
	if total < 0 {
		total = 0
	}
	return total
}

// Submit queues a CPU task on the domain, waking its VCPU if blocked. It
// panics on non-positive demand.
func (d *Domain) Submit(t *Task) {
	if t.Demand <= 0 {
		panic(fmt.Sprintf("xen: task %q with non-positive demand %v", t.Label, t.Demand))
	}
	t.remaining = t.Demand
	t.submitted = d.hv.sim.Now()
	d.queue = append(d.queue, t)
	d.tasksTotal++
	d.active = true
	d.hv.wake(d)
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
