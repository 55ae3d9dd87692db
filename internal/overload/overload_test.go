package overload

import (
	"testing"

	"repro/internal/sim"
)

// queueHarness drives a Queue with explicit arrival/service scripting.
type queueHarness struct {
	s *sim.Simulator
	q *Queue

	ran     []int // ids whose run fired, in order
	shedIDs []int // ids dropped with expired=false
	expIDs  []int // ids dropped with expired=true
}

func newQueueHarness(workers int, cfg QueueConfig) *queueHarness {
	h := &queueHarness{s: sim.New(1)}
	h.q = NewQueue(h.s, workers, cfg)
	return h
}

// offer admits id at the current time; the worker is held until release.
func (h *queueHarness) offer(id int, class Class) {
	h.q.Acquire(class, func() { h.ran = append(h.ran, id) }, func(expired bool) {
		if expired {
			h.expIDs = append(h.expIDs, id)
		} else {
			h.shedIDs = append(h.shedIDs, id)
		}
	})
}

func (h *queueHarness) checkConservation(t *testing.T) {
	t.Helper()
	st := h.q.Stats()
	if got := st.Served + st.Shed + st.Expired + uint64(h.q.Waiting()); got != st.Offered {
		t.Fatalf("conservation broken: offered=%d served=%d shed=%d expired=%d waiting=%d",
			st.Offered, st.Served, st.Shed, st.Expired, h.q.Waiting())
	}
}

func TestQueueServesFIFOAndConserves(t *testing.T) {
	h := newQueueHarness(1, QueueConfig{Cap: 8})
	h.offer(0, ClassBrowse) // takes the worker
	h.offer(1, ClassBrowse)
	h.offer(2, ClassTransact)
	if h.q.Waiting() != 2 || h.q.Idle() != 0 {
		t.Fatalf("waiting=%d idle=%d, want 2/0", h.q.Waiting(), h.q.Idle())
	}
	h.checkConservation(t)
	h.q.Release() // hands to 1
	h.q.Release() // hands to 2
	h.q.Release() // frees the worker
	if want := []int{0, 1, 2}; len(h.ran) != 3 || h.ran[0] != want[0] || h.ran[1] != want[1] || h.ran[2] != want[2] {
		t.Fatalf("ran %v, want %v", h.ran, want)
	}
	if h.q.Idle() != 1 {
		t.Fatalf("idle=%d after drain, want 1", h.q.Idle())
	}
	h.checkConservation(t)
}

func TestQueueTailDropShedsArrival(t *testing.T) {
	h := newQueueHarness(1, QueueConfig{Cap: 1, Policy: TailDrop})
	h.offer(0, ClassBrowse) // in service
	h.offer(1, ClassBrowse) // queued
	h.offer(2, ClassTransact)
	if len(h.shedIDs) != 1 || h.shedIDs[0] != 2 {
		t.Fatalf("shed %v, want [2]", h.shedIDs)
	}
	if h.q.Waiting() != 1 {
		t.Fatalf("waiting=%d, want 1", h.q.Waiting())
	}
	h.checkConservation(t)
}

func TestQueueHeadDropShedsOldest(t *testing.T) {
	h := newQueueHarness(1, QueueConfig{Cap: 1, Policy: HeadDrop})
	h.offer(0, ClassBrowse)
	h.offer(1, ClassBrowse)
	h.offer(2, ClassTransact)
	if len(h.shedIDs) != 1 || h.shedIDs[0] != 1 {
		t.Fatalf("shed %v, want [1]", h.shedIDs)
	}
	h.q.Release()
	if len(h.ran) != 2 || h.ran[1] != 2 {
		t.Fatalf("ran %v, want [0 2]", h.ran)
	}
	h.checkConservation(t)
}

func TestQueuePriorityDropProtectsTransact(t *testing.T) {
	h := newQueueHarness(1, QueueConfig{Cap: 2, Policy: PriorityDrop})
	h.offer(0, ClassTransact) // in service
	h.offer(1, ClassBrowse)   // queued
	h.offer(2, ClassTransact) // queued; queue now full

	// A transact arrival displaces the newest queued browse entry.
	h.offer(3, ClassTransact)
	if len(h.shedIDs) != 1 || h.shedIDs[0] != 1 {
		t.Fatalf("shed %v, want [1]", h.shedIDs)
	}
	// A browse arrival never displaces anything.
	h.offer(4, ClassBrowse)
	if len(h.shedIDs) != 2 || h.shedIDs[1] != 4 {
		t.Fatalf("shed %v, want [1 4]", h.shedIDs)
	}
	// All-transact queue: a transact arrival is tail-dropped among equals.
	h.offer(5, ClassTransact)
	if len(h.shedIDs) != 3 || h.shedIDs[2] != 5 {
		t.Fatalf("shed %v, want [1 4 5]", h.shedIDs)
	}
	h.q.Release()
	h.q.Release()
	h.q.Release()
	if want := []int{0, 2, 3}; len(h.ran) != 3 || h.ran[1] != want[1] || h.ran[2] != want[2] {
		t.Fatalf("ran %v, want %v", h.ran, want)
	}
	h.checkConservation(t)
}

func TestQueueDeadlineExpiresLazily(t *testing.T) {
	h := newQueueHarness(1, QueueConfig{Cap: 8, Deadline: 10 * sim.Millisecond})
	h.s.At(0, func() {
		h.offer(0, ClassBrowse) // in service
		h.offer(1, ClassBrowse) // queued at t=0
	})
	h.s.At(5*sim.Millisecond, func() { h.offer(2, ClassTransact) })
	// Release at t=20ms: entry 1 (aged 20ms) and entry 2 (aged 15ms) are
	// both past the 10ms deadline — counted and notified, never run.
	h.s.At(20*sim.Millisecond, func() {
		h.q.Release()
	})
	h.s.Run()
	if len(h.expIDs) != 2 || h.expIDs[0] != 1 || h.expIDs[1] != 2 {
		t.Fatalf("expired %v, want [1 2]", h.expIDs)
	}
	if len(h.ran) != 1 {
		t.Fatalf("ran %v, want only [0]", h.ran)
	}
	st := h.q.Stats()
	if st.Expired != 2 || st.Served != 1 || st.Shed != 0 {
		t.Fatalf("stats %+v, want served=1 expired=2", st)
	}
	if h.q.Idle() != 1 {
		t.Fatalf("idle=%d, want 1 (release fell through to freeing)", h.q.Idle())
	}
	h.checkConservation(t)
}

func TestQueueCapNeverExceeded(t *testing.T) {
	for _, pol := range []Policy{TailDrop, HeadDrop, PriorityDrop} {
		h := newQueueHarness(2, QueueConfig{Cap: 3, Policy: pol})
		for i := 0; i < 40; i++ {
			h.offer(i, Class(i%NumClasses))
		}
		if st := h.q.Stats(); st.MaxWaiting > 3 {
			t.Fatalf("policy %v: max waiting %d exceeds cap 3", pol, st.MaxWaiting)
		}
		h.checkConservation(t)
	}
}

func TestQueueDelayHookSeesQueueing(t *testing.T) {
	h := newQueueHarness(1, QueueConfig{})
	var delays []sim.Time
	h.q.OnDelay(func(_ Class, d sim.Time) { delays = append(delays, d) })
	h.s.At(0, func() {
		h.offer(0, ClassBrowse)
		h.offer(1, ClassBrowse)
	})
	h.s.At(7*sim.Millisecond, func() { h.q.Release() })
	h.s.Run()
	if len(delays) != 2 || delays[0] != 0 || delays[1] != 7*sim.Millisecond {
		t.Fatalf("delays %v, want [0 7ms]", delays)
	}
}

func TestDetectorHysteresis(t *testing.T) {
	d := NewDetector(DetectorConfig{Alpha: 0.5, Threshold: 100 * sim.Millisecond})
	var changes []bool
	d.OnChange = func(o bool) { changes = append(changes, o) }

	d.Sample(10 * sim.Millisecond)
	if d.Overloaded() {
		t.Fatal("overloaded after one small sample")
	}
	for i := 0; i < 10; i++ {
		d.Sample(400 * sim.Millisecond)
	}
	if !d.Overloaded() {
		t.Fatalf("not overloaded at smoothed %v", d.Smoothed())
	}
	// Hysteresis: two zero samples pull the EWMA below the threshold
	// (~99.9ms) but not below the Threshold/2 floor; the verdict
	// must hold inside the band.
	d.Sample(0)
	d.Sample(0)
	if d.Smoothed() >= 100*sim.Millisecond {
		t.Fatalf("smoothed %v still above threshold; test needs a bigger drop", d.Smoothed())
	}
	if !d.Overloaded() {
		t.Fatal("verdict flapped inside the hysteresis band")
	}
	for i := 0; i < 10; i++ {
		d.Sample(0)
	}
	if d.Overloaded() {
		t.Fatal("still overloaded after sustained recovery")
	}
	if len(changes) != 2 || !changes[0] || changes[1] {
		t.Fatalf("changes %v, want [true false]", changes)
	}
	if st := d.Stats(); st.Episodes != 1 {
		t.Fatalf("episodes %d, want 1", st.Episodes)
	}
}

func TestBreakerStateMachine(t *testing.T) {
	s := sim.New(1)
	b := NewBreaker(s, BreakerConfig{FailureThreshold: 2, OpenTimeout: 50 * sim.Millisecond, SuccessThreshold: 2})
	var transitions []BreakerState
	b.OnTransition = func(_, to BreakerState) { transitions = append(transitions, to) }

	s.At(0, func() {
		if !b.Allow() {
			t.Error("closed breaker refused")
		}
		b.RecordFailure()
		b.RecordFailure() // trips open
		if b.State() != BreakerOpen {
			t.Errorf("state %v after threshold failures, want open", b.State())
		}
		if b.Allow() {
			t.Error("open breaker allowed")
		}
	})
	// Well past the jittered hold (<= 50ms * 1.25): half-open, one probe.
	s.At(200*sim.Millisecond, func() {
		if !b.Allow() {
			t.Error("half-open breaker refused the first probe")
		}
		if b.State() != BreakerHalfOpen {
			t.Errorf("state %v during probe, want half-open", b.State())
		}
		if b.Allow() {
			t.Error("half-open breaker allowed a second concurrent probe")
		}
		b.RecordFailure() // probe failed: reopen
		if b.State() != BreakerOpen {
			t.Errorf("state %v after failed probe, want open", b.State())
		}
	})
	s.At(500*sim.Millisecond, func() {
		if !b.Allow() {
			t.Error("half-open breaker refused after second hold")
		}
		b.RecordSuccess()
		if !b.Allow() {
			t.Error("refused second probe after first success")
		}
		b.RecordSuccess() // closes
		if b.State() != BreakerClosed {
			t.Errorf("state %v after success threshold, want closed", b.State())
		}
	})
	s.Run()

	want := []BreakerState{BreakerOpen, BreakerHalfOpen, BreakerOpen, BreakerHalfOpen, BreakerClosed}
	if len(transitions) != len(want) {
		t.Fatalf("transitions %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transitions %v, want %v", transitions, want)
		}
	}
	st := b.Stats()
	if st.Opens != 2 || st.Closes != 1 || st.HalfOpens != 2 {
		t.Fatalf("stats %+v, want opens=2 closes=1 halfopens=2", st)
	}
	if st.Rejected != 2 {
		t.Fatalf("rejected %d, want 2", st.Rejected)
	}
}

func TestBreakerJitterDeterministic(t *testing.T) {
	holds := func(seed int64) []sim.Time {
		s := sim.New(1)
		b := NewBreaker(s, BreakerConfig{FailureThreshold: 1, Seed: seed})
		var ends []sim.Time
		for i := 0; i < 4; i++ {
			b.RecordFailure()
			ends = append(ends, b.openUntil)
			b.state = BreakerClosed // force re-trip without advancing time
		}
		return ends
	}
	a, b := holds(7), holds(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged: %v vs %v", a, b)
		}
	}
	c := holds(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatalf("different seeds produced identical jitter %v", a)
	}
}

func TestShedderRaisesBrowseFirst(t *testing.T) {
	s := sim.New(1)
	sh := NewShedder(s, ShedderConfig{Step: 0.3, MaxBrowse: 0.5, MaxTransact: 0.4, DecayTau: -1})
	sh.Adjust(1) // browse 0.3
	if got := sh.Rate(ClassBrowse); got < 0.29 || got > 0.31 {
		t.Fatalf("browse rate %v, want ~0.3", got)
	}
	if got := sh.Rate(ClassTransact); got > 0 {
		t.Fatalf("transact rate %v before browse saturates, want 0", got)
	}
	sh.Adjust(1) // browse caps at 0.5, 0.1 spills into transact
	if got := sh.Rate(ClassBrowse); got < 0.49 || got > 0.51 {
		t.Fatalf("browse rate %v, want cap 0.5", got)
	}
	if got := sh.Rate(ClassTransact); got < 0.09 || got > 0.11 {
		t.Fatalf("transact rate %v, want spill ~0.1", got)
	}
	sh.Adjust(-1) // relax: transact drains first (0.1), then browse (0.2)
	if got := sh.Rate(ClassTransact); got > 0 {
		t.Fatalf("transact rate %v after relax, want 0", got)
	}
	if got := sh.Rate(ClassBrowse); got < 0.29 || got > 0.31 {
		t.Fatalf("browse rate %v after relax, want ~0.3", got)
	}
}

func TestShedderDecaysToAdmitting(t *testing.T) {
	s := sim.New(1)
	sh := NewShedder(s, ShedderConfig{Step: 0.5, DecayTau: 100 * sim.Millisecond})
	sh.Adjust(1)
	var late float64
	s.At(2*sim.Second, func() { late = sh.Rate(ClassBrowse) })
	s.Run()
	if late > 0 {
		t.Fatalf("rate %v after 20 tau, want fully decayed", late)
	}
	// With the rate at zero no randomness is consumed and nothing sheds.
	if sh.ShouldShed(ClassBrowse) {
		t.Fatal("decayed shedder shed a request")
	}
}

func TestShedderShedsAtConfiguredRate(t *testing.T) {
	s := sim.New(1)
	sh := NewShedder(s, ShedderConfig{Step: 0.5, DecayTau: -1, Seed: 42})
	sh.Adjust(1) // browse 0.5
	shed := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if sh.ShouldShed(ClassBrowse) {
			shed++
		}
	}
	if shed < n*4/10 || shed > n*6/10 {
		t.Fatalf("shed %d/%d at rate 0.5, outside [40%%, 60%%]", shed, n)
	}
	st := sh.Stats()
	if st.Seen[ClassBrowse] != n || st.Shed[ClassBrowse] != uint64(shed) {
		t.Fatalf("stats %+v, want seen=%d shed=%d", st, n, shed)
	}
}
