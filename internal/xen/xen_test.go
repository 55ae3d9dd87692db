package xen

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// newTestHV builds a hypervisor with n PCPUs and starts it.
func newTestHV(t *testing.T, n int) (*sim.Simulator, *Hypervisor) {
	t.Helper()
	s := sim.New(1)
	hv := New(s, Options{NumPCPUs: n})
	return s, hv
}

// saturate keeps a domain continuously busy by resubmitting work.
func saturate(s *sim.Simulator, d *Domain, chunk sim.Time) {
	var next func()
	next = func() {
		d.SubmitFunc(chunk, "work", next)
	}
	d.SubmitFunc(chunk, "work", next)
}

func TestPriorityString(t *testing.T) {
	if PrioBoost.String() != "BOOST" || PrioUnder.String() != "UNDER" || PrioOver.String() != "OVER" {
		t.Fatal("priority names wrong")
	}
	if Priority(9).String() != "Priority(9)" {
		t.Fatal("unknown priority name wrong")
	}
}

func TestSingleDomainConsumesCPU(t *testing.T) {
	s, hv := newTestHV(t, 1)
	d := hv.CreateDomain("dom", 256)
	hv.Start()
	done := false
	d.SubmitFunc(50*sim.Millisecond, "t", func() { done = true })
	s.RunUntil(1 * sim.Second)
	if !done {
		t.Fatal("task did not complete")
	}
	hv.syncRunMeter(d)
	busy := d.Meter().Busy()
	if busy != 50*sim.Millisecond {
		t.Fatalf("busy = %v, want 50ms", busy)
	}
	if d.TasksCompleted() != 1 || d.TasksSubmitted() != 1 {
		t.Fatalf("task counters = %d/%d", d.TasksCompleted(), d.TasksSubmitted())
	}
}

func TestTaskCompletionTime(t *testing.T) {
	s, hv := newTestHV(t, 1)
	d := hv.CreateDomain("dom", 256)
	hv.Start()
	var doneAt sim.Time
	d.SubmitFunc(25*sim.Millisecond, "t", func() { doneAt = s.Now() })
	s.RunUntil(1 * sim.Second)
	// Uncontended: completes exactly after its demand.
	if doneAt != 25*sim.Millisecond {
		t.Fatalf("completed at %v, want 25ms", doneAt)
	}
}

func TestTasksRunFIFO(t *testing.T) {
	s, hv := newTestHV(t, 1)
	d := hv.CreateDomain("dom", 256)
	hv.Start()
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		d.SubmitFunc(5*sim.Millisecond, name, func() { order = append(order, name) })
	}
	s.RunUntil(1 * sim.Second)
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order = %v", order)
	}
}

func TestEqualWeightsShareCPUEqually(t *testing.T) {
	s, hv := newTestHV(t, 1)
	a := hv.CreateDomain("a", 256)
	b := hv.CreateDomain("b", 256)
	hv.Start()
	saturate(s, a, 5*sim.Millisecond)
	saturate(s, b, 5*sim.Millisecond)
	s.RunUntil(10 * sim.Second)
	hv.syncRunMeter(a)
	hv.syncRunMeter(b)
	ua := a.Meter().MeanUtilization(0, s.Now())
	ub := b.Meter().MeanUtilization(0, s.Now())
	if math.Abs(ua-50) > 5 || math.Abs(ub-50) > 5 {
		t.Fatalf("utilizations = %.1f%%, %.1f%%, want ~50/50", ua, ub)
	}
	if math.Abs(ua+ub-100) > 2 {
		t.Fatalf("total utilization = %.1f%%, want ~100", ua+ub)
	}
}

func TestWeightsGiveProportionalShares(t *testing.T) {
	s, hv := newTestHV(t, 1)
	a := hv.CreateDomain("a", 512)
	b := hv.CreateDomain("b", 256)
	hv.Start()
	saturate(s, a, 5*sim.Millisecond)
	saturate(s, b, 5*sim.Millisecond)
	s.RunUntil(30 * sim.Second)
	hv.syncRunMeter(a)
	hv.syncRunMeter(b)
	ua := a.Meter().MeanUtilization(0, s.Now())
	ub := b.Meter().MeanUtilization(0, s.Now())
	ratio := ua / ub
	if math.Abs(ratio-2) > 0.3 {
		t.Fatalf("share ratio = %.2f (%.1f%% vs %.1f%%), want ~2", ratio, ua, ub)
	}
}

func TestWorkConservingWhenOneDomainIdles(t *testing.T) {
	s, hv := newTestHV(t, 1)
	a := hv.CreateDomain("a", 256)
	hv.CreateDomain("b", 256) // never submits work
	hv.Start()
	saturate(s, a, 5*sim.Millisecond)
	s.RunUntil(5 * sim.Second)
	hv.syncRunMeter(a)
	ua := a.Meter().MeanUtilization(0, s.Now())
	if ua < 95 {
		t.Fatalf("a utilization = %.1f%%, want ~100 (work conserving)", ua)
	}
}

func TestTwoPCPUsRunTwoDomainsConcurrently(t *testing.T) {
	s, hv := newTestHV(t, 2)
	a := hv.CreateDomain("a", 256)
	b := hv.CreateDomain("b", 256)
	hv.Start()
	saturate(s, a, 5*sim.Millisecond)
	saturate(s, b, 5*sim.Millisecond)
	s.RunUntil(5 * sim.Second)
	hv.syncRunMeter(a)
	hv.syncRunMeter(b)
	ua := a.Meter().MeanUtilization(0, s.Now())
	ub := b.Meter().MeanUtilization(0, s.Now())
	if ua < 95 || ub < 95 {
		t.Fatalf("utilizations = %.1f%%, %.1f%%, want ~100 each on 2 PCPUs", ua, ub)
	}
}

func TestThreeDomainsOnTwoPCPUs(t *testing.T) {
	// The paper's RUBiS setup: three single-VCPU VMs on a dual-core host.
	s, hv := newTestHV(t, 2)
	doms := []*Domain{
		hv.CreateDomain("web", 256),
		hv.CreateDomain("app", 256),
		hv.CreateDomain("db", 256),
	}
	hv.Start()
	for _, d := range doms {
		saturate(s, d, 5*sim.Millisecond)
	}
	s.RunUntil(30 * sim.Second)
	total := 0.0
	for _, d := range doms {
		hv.syncRunMeter(d)
		u := d.Meter().MeanUtilization(0, s.Now())
		if math.Abs(u-66.7) > 8 {
			t.Fatalf("domain %s utilization = %.1f%%, want ~66.7", d.Name(), u)
		}
		total += u
	}
	if math.Abs(total-200) > 5 {
		t.Fatalf("total utilization = %.1f%%, want ~200", total)
	}
}

func TestWeightChangeTakesEffect(t *testing.T) {
	s, hv := newTestHV(t, 1)
	a := hv.CreateDomain("a", 256)
	b := hv.CreateDomain("b", 256)
	ctl := NewCtl(hv)
	hv.Start()
	saturate(s, a, 5*sim.Millisecond)
	saturate(s, b, 5*sim.Millisecond)
	s.RunUntil(5 * sim.Second)
	// Snapshot, then triple a's weight.
	hv.syncRunMeter(a)
	hv.syncRunMeter(b)
	aBefore, bBefore := a.Meter().Busy(), b.Meter().Busy()
	if err := ctl.SetWeight(a.ID(), 768); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(35 * sim.Second)
	hv.syncRunMeter(a)
	hv.syncRunMeter(b)
	aRan := (a.Meter().Busy() - aBefore).Seconds()
	bRan := (b.Meter().Busy() - bBefore).Seconds()
	ratio := aRan / bRan
	if math.Abs(ratio-3) > 0.5 {
		t.Fatalf("post-change share ratio = %.2f, want ~3", ratio)
	}
}

func TestBoostedWakeupPreemptsOverVCPU(t *testing.T) {
	s, hv := newTestHV(t, 1)
	hog := hv.CreateDomain("hog", 256)
	lat := hv.CreateDomain("latency", 256)
	hv.Start()
	saturate(s, hog, 5*sim.Millisecond)
	// Let the hog burn through its credits so it sits at OVER.
	var wake, done sim.Time
	s.At(500*sim.Millisecond, func() {
		wake = s.Now()
		lat.SubmitFunc(1*sim.Millisecond, "ping", func() { done = s.Now() })
	})
	s.RunUntil(2 * sim.Second)
	if done == 0 {
		t.Fatal("latency task never completed")
	}
	delay := done - wake
	// A woken UNDER/BOOST VCPU should preempt the OVER hog promptly rather
	// than waiting out a full 30ms timeslice.
	if delay > 5*sim.Millisecond {
		t.Fatalf("wakeup-to-completion = %v, want <=5ms (boost preemption)", delay)
	}
}

func TestExplicitBoostTrigger(t *testing.T) {
	s, hv := newTestHV(t, 1)
	hog := hv.CreateDomain("hog", 2560) // heavy weight keeps hog at UNDER
	victim := hv.CreateDomain("victim", 256)
	ctl := NewCtl(hv)
	hv.Start()
	saturate(s, hog, 5*sim.Millisecond)
	saturate(s, victim, 5*sim.Millisecond)
	s.RunUntil(1 * sim.Second)

	// Without boost the victim only gets its small weight share. Boost it
	// repeatedly (as the Trigger mechanism does) and verify it runs promptly.
	var boostedRuns int
	stop := s.Ticker(20*sim.Millisecond, func() {
		if err := ctl.Boost(victim.ID()); err != nil {
			t.Errorf("Boost: %v", err)
		}
		if victim.Running() {
			boostedRuns++
		}
	})
	s.RunUntil(2 * sim.Second)
	stop()
	if boostedRuns == 0 {
		t.Fatal("victim never observed running after boosts")
	}
}

func TestBlockedDomainUsesNoCPU(t *testing.T) {
	s, hv := newTestHV(t, 1)
	busy := hv.CreateDomain("busy", 256)
	idle := hv.CreateDomain("idle", 256)
	hv.Start()
	saturate(s, busy, 5*sim.Millisecond)
	s.RunUntil(3 * sim.Second)
	hv.syncRunMeter(idle)
	if idle.Meter().Busy() != 0 {
		t.Fatalf("idle domain consumed %v CPU", idle.Meter().Busy())
	}
}

func TestBacklogAccounting(t *testing.T) {
	s, hv := newTestHV(t, 1)
	d := hv.CreateDomain("dom", 256)
	hv.Start()
	d.SubmitFunc(100*sim.Millisecond, "t1", nil)
	d.SubmitFunc(50*sim.Millisecond, "t2", nil)
	if got := d.Backlog(); got != 150*sim.Millisecond {
		t.Fatalf("initial backlog = %v, want 150ms", got)
	}
	s.RunUntil(30 * sim.Millisecond)
	got := d.Backlog()
	if got > 130*sim.Millisecond || got < 110*sim.Millisecond {
		t.Fatalf("backlog after 30ms = %v, want ~120ms", got)
	}
	s.RunUntil(1 * sim.Second)
	if got := d.Backlog(); got != 0 {
		t.Fatalf("final backlog = %v, want 0", got)
	}
}

func TestQueueLenAndCounters(t *testing.T) {
	s, hv := newTestHV(t, 1)
	d := hv.CreateDomain("dom", 256)
	hv.Start()
	for i := 0; i < 5; i++ {
		d.SubmitFunc(10*sim.Millisecond, "t", nil)
	}
	// One task is picked up by the VCPU as soon as events run.
	s.RunUntil(1 * sim.Millisecond)
	if got := d.QueueLen(); got != 4 {
		t.Fatalf("QueueLen = %d, want 4", got)
	}
	s.RunUntil(1 * sim.Second)
	if d.TasksCompleted() != 5 {
		t.Fatalf("TasksCompleted = %d, want 5", d.TasksCompleted())
	}
}

func TestSubmitZeroDemandPanics(t *testing.T) {
	_, hv := newTestHV(t, 1)
	d := hv.CreateDomain("dom", 256)
	defer func() {
		if recover() == nil {
			t.Fatal("zero-demand task did not panic")
		}
	}()
	d.SubmitFunc(0, "bad", nil)
}

func TestCreateDomainValidation(t *testing.T) {
	_, hv := newTestHV(t, 1)
	for _, fn := range []func(){
		func() { hv.CreateDomain("x", 0) },
		func() { hv.CreateDomain("x", -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid CreateDomain did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestDomainLookups(t *testing.T) {
	_, hv := newTestHV(t, 1)
	d0 := hv.CreateDomain("dom0", 256)
	d1 := hv.CreateDomain("web", 256)
	if d0.ID() != 0 || d1.ID() != 1 {
		t.Fatalf("IDs = %d, %d", d0.ID(), d1.ID())
	}
	if hv.DomainByName("web") != d1 {
		t.Fatal("DomainByName failed")
	}
	if hv.DomainByName("nope") != nil {
		t.Fatal("DomainByName returned ghost")
	}
	if len(hv.Domains()) != 2 {
		t.Fatalf("Domains() len = %d", len(hv.Domains()))
	}
	if len(hv.PCPUs()) != 1 {
		t.Fatalf("PCPUs() len = %d", len(hv.PCPUs()))
	}
}

func TestCtlErrors(t *testing.T) {
	_, hv := newTestHV(t, 1)
	hv.CreateDomain("dom", 256)
	ctl := NewCtl(hv)
	if err := ctl.SetWeight(99, 512); err == nil {
		t.Fatal("SetWeight on missing domain succeeded")
	}
	if err := ctl.SetWeight(0, 0); err == nil {
		t.Fatal("SetWeight(0) succeeded")
	}
	for _, r := range [][2]int{{0, 10}, {-5, 10}, {20, 10}} {
		if _, err := ctl.AdjustWeight(0, 1, r[0], r[1]); err == nil {
			t.Fatalf("AdjustWeight clamp [%d, %d] accepted", r[0], r[1])
		}
	}
	if w, _ := ctl.Weight(0); w != 256 {
		t.Fatalf("rejected AdjustWeight changed the weight to %d", w)
	}
	if err := ctl.Boost(42); err == nil {
		t.Fatal("Boost on missing domain succeeded")
	}
	if _, err := ctl.Weight(42); err == nil {
		t.Fatal("Weight on missing domain succeeded")
	}
}

func TestCtlAdjustWeightClamps(t *testing.T) {
	_, hv := newTestHV(t, 1)
	d := hv.CreateDomain("dom", 256)
	ctl := NewCtl(hv)
	w, err := ctl.AdjustWeight(d.ID(), +1000, 64, 1024)
	if err != nil || w != 1024 {
		t.Fatalf("AdjustWeight up = %d, %v", w, err)
	}
	w, err = ctl.AdjustWeight(d.ID(), -5000, 64, 1024)
	if err != nil || w != 64 {
		t.Fatalf("AdjustWeight down = %d, %v", w, err)
	}
	if _, err := ctl.AdjustWeight(7, 1, 1, 10); err == nil {
		t.Fatal("AdjustWeight on missing domain succeeded")
	}
	got, err := ctl.Weight(d.ID())
	if err != nil || got != 64 {
		t.Fatalf("Weight = %d, %v", got, err)
	}
}

func TestStartTwicePanics(t *testing.T) {
	_, hv := newTestHV(t, 1)
	hv.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("second Start did not panic")
		}
	}()
	hv.Start()
}

func TestUtilizationSeriesSampled(t *testing.T) {
	s := sim.New(1)
	hv := New(s, Options{NumPCPUs: 1, SamplePeriod: 100 * sim.Millisecond})
	d := hv.CreateDomain("dom", 256)
	hv.Start()
	saturate(s, d, 5*sim.Millisecond)
	s.RunUntil(1 * sim.Second)
	series := d.Meter().Series()
	if series.Len() < 9 {
		t.Fatalf("series has %d samples, want ~10", series.Len())
	}
	if series.Max() < 95 {
		t.Fatalf("max sampled utilization = %.1f%%, want ~100", series.Max())
	}
}

func TestTotalUtilization(t *testing.T) {
	s, hv := newTestHV(t, 2)
	a := hv.CreateDomain("a", 256)
	b := hv.CreateDomain("b", 256)
	hv.Start()
	saturate(s, a, 5*sim.Millisecond)
	saturate(s, b, 5*sim.Millisecond)
	s.RunUntil(2 * sim.Second)
	total := hv.TotalUtilization(0, a, b)
	if math.Abs(total-200) > 5 {
		t.Fatalf("TotalUtilization = %.1f, want ~200", total)
	}
}

func TestDeterministicScheduling(t *testing.T) {
	run := func() (sim.Time, sim.Time, uint64) {
		s := sim.New(99)
		hv := New(s, Options{NumPCPUs: 2})
		a := hv.CreateDomain("a", 256)
		b := hv.CreateDomain("b", 512)
		c := hv.CreateDomain("c", 128)
		hv.Start()
		saturate(s, a, 7*sim.Millisecond)
		saturate(s, b, 3*sim.Millisecond)
		saturate(s, c, 11*sim.Millisecond)
		s.RunUntil(10 * sim.Second)
		hv.syncRunMeter(a)
		hv.syncRunMeter(b)
		return a.Meter().Busy(), b.Meter().Busy(), hv.Schedules()
	}
	a1, b1, s1 := run()
	a2, b2, s2 := run()
	if a1 != a2 || b1 != b2 || s1 != s2 {
		t.Fatalf("nondeterministic: (%v,%v,%d) vs (%v,%v,%d)", a1, b1, s1, a2, b2, s2)
	}
}

func TestPreemptionCounterAdvances(t *testing.T) {
	s, hv := newTestHV(t, 1)
	hog := hv.CreateDomain("hog", 256)
	waker := hv.CreateDomain("waker", 256)
	hv.Start()
	saturate(s, hog, 50*sim.Millisecond)
	stop := s.Ticker(100*sim.Millisecond, func() {
		waker.SubmitFunc(1*sim.Millisecond, "ping", nil)
	})
	s.RunUntil(3 * sim.Second)
	stop()
	if hv.Preemptions() == 0 {
		t.Fatal("no preemptions recorded despite boosted wakeups")
	}
}

func TestManyDomainsFairness(t *testing.T) {
	s, hv := newTestHV(t, 4)
	var doms []*Domain
	for i := 0; i < 8; i++ {
		doms = append(doms, hv.CreateDomain("d", 256))
	}
	hv.Start()
	for _, d := range doms {
		saturate(s, d, 5*sim.Millisecond)
	}
	s.RunUntil(20 * sim.Second)
	for _, d := range doms {
		hv.syncRunMeter(d)
		u := d.Meter().MeanUtilization(0, s.Now())
		if math.Abs(u-50) > 8 {
			t.Fatalf("domain utilization = %.1f%%, want ~50 (8 doms on 4 cpus)", u)
		}
	}
}

func TestLabeledBusyBreakdown(t *testing.T) {
	s, hv := newTestHV(t, 1)
	d := hv.CreateDomain("dom", 256)
	hv.Start()
	d.SubmitFunc(30*sim.Millisecond, "net-rx", nil)
	d.SubmitFunc(20*sim.Millisecond, "bridge", nil)
	d.SubmitFunc(50*sim.Millisecond, "app", nil)
	s.RunUntil(1 * sim.Second)
	busy := d.LabeledBusy()
	if busy["net-rx"] != 30*sim.Millisecond {
		t.Fatalf("net-rx = %v", busy["net-rx"])
	}
	if busy["bridge"] != 20*sim.Millisecond {
		t.Fatalf("bridge = %v", busy["bridge"])
	}
	if busy["app"] != 50*sim.Millisecond {
		t.Fatalf("app = %v", busy["app"])
	}
	// The per-label sum equals the meter total.
	var sum sim.Time
	for _, v := range busy {
		sum += v
	}
	hv.syncRunMeter(d)
	if sum != d.Meter().Busy() {
		t.Fatalf("label sum %v != meter %v", sum, d.Meter().Busy())
	}
}
