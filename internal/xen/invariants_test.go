package xen

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// TestSchedulerInvariantsRandomized runs randomized workloads and checks
// the scheduler's global invariants: CPU time conservation, work
// conservation, and consistent task accounting.
func TestSchedulerInvariantsRandomized(t *testing.T) {
	f := func(seed int64, nDomsRaw, nCPUsRaw uint8) bool {
		nCPUs := int(nCPUsRaw)%4 + 1
		nDoms := int(nDomsRaw)%6 + 1
		s := sim.New(seed)
		hv := New(s, Options{NumPCPUs: nCPUs})
		rng := s.Rand().Fork()
		doms := make([]*Domain, nDoms)
		for i := range doms {
			doms[i] = hv.CreateDomain("d", 64+rng.Intn(1024))
		}
		hv.Start()

		// Random open-loop arrivals per domain.
		for _, d := range doms {
			d := d
			var arrive func()
			arrive = func() {
				if s.Now() > 2*sim.Second {
					return
				}
				d.SubmitFunc(sim.Time(rng.Intn(20)+1)*sim.Millisecond, "t", nil)
				s.After(rng.ExpTime(15*sim.Millisecond), arrive)
			}
			s.After(rng.ExpTime(10*sim.Millisecond), arrive)
		}

		// Work conservation probe: whenever total queued work exists and
		// some PCPU idles, every queued domain must be blocked or running —
		// i.e. the runqueue must be empty.
		conserving := true
		s.Ticker(7*sim.Millisecond, func() {
			idle := 0
			for _, p := range hv.PCPUs() {
				if p.Current() == nil {
					idle++
				}
			}
			if idle == 0 {
				return
			}
			for _, q := range hv.runq {
				if len(q) != 0 {
					conserving = false
				}
			}
		})

		s.RunUntil(3 * sim.Second)

		// Conservation of CPU time: total busy <= capacity.
		var busy sim.Time
		for _, d := range hv.Domains() {
			hv.syncRunMeter(d)
			busy += d.Meter().Busy()
		}
		if busy > sim.Time(nCPUs)*s.Now() {
			return false
		}
		// Task accounting: completed <= submitted, and all work either done
		// or still queued.
		for _, d := range hv.Domains() {
			if d.TasksCompleted() > d.TasksSubmitted() {
				return false
			}
		}
		return conserving
	}
	cfg := &quick.Config{MaxCount: 12}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestCreditsBoundedRandomized checks that credit balances stay within the
// accounting clamp under arbitrary load.
func TestCreditsBoundedRandomized(t *testing.T) {
	f := func(seed int64) bool {
		s := sim.New(seed)
		hv := New(s, Options{NumPCPUs: 2})
		rng := s.Rand().Fork()
		var doms []*Domain
		for i := 0; i < 4; i++ {
			doms = append(doms, hv.CreateDomain("d", 64+rng.Intn(512)))
		}
		hv.Start()
		for _, d := range doms {
			saturate(s, d, sim.Time(rng.Intn(10)+1)*sim.Millisecond)
		}
		ok := true
		clamp := acctPeriod + timeslice // slack for in-slice burn
		s.Ticker(10*sim.Millisecond, func() {
			for _, d := range doms {
				if d.Credits() > clamp || d.Credits() < -clamp {
					ok = false
				}
			}
		})
		s.RunUntil(2 * sim.Second)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestNoLostTasksUnderChurn submits a known amount of work with weight
// changes and boosts happening concurrently, then verifies all
// of it completes.
func TestNoLostTasksUnderChurn(t *testing.T) {
	s := sim.New(17)
	hv := New(s, Options{NumPCPUs: 2})
	a := hv.CreateDomain("a", 256)
	b := hv.CreateDomain("b", 256)
	ctl := NewCtl(hv)
	hv.Start()
	const n = 300
	done := 0
	rng := s.Rand().Fork()
	for i := 0; i < n; i++ {
		d := a
		if i%2 == 0 {
			d = b
		}
		at := sim.Time(rng.Intn(2000)) * sim.Millisecond
		dom := d
		s.At(at, func() {
			d := dom
			d.SubmitFunc(sim.Time(rng.Intn(8)+1)*sim.Millisecond, "t", func() { done++ })
		})
	}
	// Churn the control plane while work flows.
	s.Ticker(50*sim.Millisecond, func() {
		switch rng.Intn(2) {
		case 0:
			_ = ctl.SetWeight(a.ID(), 64+rng.Intn(1000))
		case 1:
			_ = ctl.Boost(b.ID())
		}
	})
	s.RunUntil(30 * sim.Second)
	if done != n {
		t.Fatalf("completed %d of %d tasks under churn", done, n)
	}
}
