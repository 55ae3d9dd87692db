package xen

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/sim"
)

// TestExactSchedule pins the credit scheduler's full event trace on a
// Dom0-plus-three-guests host: any change to dispatch order, preemption,
// accounting or DVFS retirement moves at least one of these numbers. The
// workload mixes staggered task streams of different sizes with one weight
// change, two explicit boosts (each timed to land on a runnable, queued
// domain) and one frequency step, so every scheduler path (wake boost,
// explicit boost, tick demotion, preemption, credit re-allotment, scaled
// retirement) fires.
func TestExactSchedule(t *testing.T) {
	s := sim.New(7)
	hv := New(s, Options{NumPCPUs: 2})
	doms := []*Domain{
		hv.CreateDomain("Dom0", 256),
		hv.CreateDomain("web", 256),
		hv.CreateDomain("app", 384),
		hv.CreateDomain("db", 128),
	}
	ctl := NewCtl(hv)
	hv.Start()

	digest := fnv.New64a()
	var buf [16]byte
	complete := func(d *Domain, label string) func() {
		return func() {
			binary.LittleEndian.PutUint64(buf[:8], uint64(s.Now()))
			binary.LittleEndian.PutUint64(buf[8:], uint64(d.ID()))
			digest.Write(buf[:])
			digest.Write([]byte(label))
		}
	}
	// Staggered open-loop streams: domain i submits a task of demand[i]
	// every period[i], starting at offset[i].
	demand := []sim.Time{300 * sim.Microsecond, 7 * sim.Millisecond, 4 * sim.Millisecond, 13 * sim.Millisecond}
	period := []sim.Time{2 * sim.Millisecond, 9 * sim.Millisecond, 5 * sim.Millisecond, 17 * sim.Millisecond}
	offset := []sim.Time{0, 1 * sim.Millisecond, 3 * sim.Millisecond, 6 * sim.Millisecond}
	labels := []string{"rx", "req", "logic", "query"}
	for i, d := range doms {
		i, d := i, d
		var arrive func()
		arrive = func() {
			d.SubmitFunc(demand[i], labels[i], complete(d, labels[i]))
			s.After(period[i], arrive)
		}
		s.At(offset[i], arrive)
	}
	s.At(400*sim.Millisecond, func() {
		if err := ctl.SetWeight(doms[3].ID(), 768); err != nil {
			t.Error(err)
		}
	})
	s.At(700*sim.Millisecond+333*sim.Microsecond, func() {
		if err := ctl.Boost(doms[2].ID()); err != nil {
			t.Error(err)
		}
	})
	s.At(1100*sim.Millisecond, func() {
		if err := ctl.SetFrequencyMHz(1600); err != nil {
			t.Error(err)
		}
	})
	s.At(1500*sim.Millisecond+77*sim.Microsecond, func() {
		if err := ctl.Boost(doms[1].ID()); err != nil {
			t.Error(err)
		}
	})
	s.RunUntil(2 * sim.Second)

	got := []uint64{s.Fired(), hv.Preemptions(), hv.Schedules()}
	for _, d := range doms {
		got = append(got, d.TasksCompleted())
	}
	got = append(got, digest.Sum64())
	want := []uint64{4866, 1014, 2439, 1000, 111, 217, 101, 7006886147720787825}
	names := []string{"fired", "preemptions", "schedules", "Dom0 done", "web done", "app done", "db done", "digest"}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s = %d, want %d", names[i], got[i], want[i])
		}
	}
}
