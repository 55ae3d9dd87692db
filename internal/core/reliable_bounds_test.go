package core

import (
	"testing"

	"repro/internal/sim"
)

// TestReliableOutstandingBoundedUnderPartition pins the endpoint's memory
// under a long total partition: a sender that keeps offering at-least-once
// traffic for 10k ticks with no acks coming back must cap its retransmit
// queue at MaxOutstanding and refuse the rest with a counted reason, never
// growing without bound.
func TestReliableOutstandingBoundedUnderPartition(t *testing.T) {
	s := sim.New(1)
	out := &scriptedTransport{} // black hole: nothing is ever delivered
	in := &scriptedTransport{}  // no acks ever arrive
	cfg := ReliableConfig{MaxOutstanding: 64}
	e := NewReliableEndpoint(s, "e", out, in, cfg)

	const ticks = 10_000
	peak := 0
	for i := 0; i < ticks; i++ {
		s.At(sim.Time(i)*sim.Millisecond, func() {
			e.Send(Message{Kind: KindTrigger, Target: "b", Entity: 1})
			if n := e.Outstanding(); n > peak {
				peak = n
			}
		})
	}
	s.RunUntil(ticks * sim.Millisecond)

	if peak > 64 {
		t.Fatalf("outstanding peaked at %d, cap is 64", peak)
	}
	st := e.Stats()
	if st.QueueFullDrops == 0 {
		t.Fatal("no queue-full drops counted despite 10k sends into a partition")
	}
	// Every offered message is accounted for: sent, refused at the cap, or
	// abandoned after max retries (which frees a slot for a later send).
	if st.DataSent+st.QueueFullDrops != ticks {
		t.Fatalf("accounting: sent=%d + queueFull=%d != %d offered", st.DataSent, st.QueueFullDrops, ticks)
	}
	if e.Outstanding() > 64 {
		t.Fatalf("final outstanding %d exceeds cap", e.Outstanding())
	}
	// Cap refusals consume no sequence numbers: no receiver-side gap ever
	// forms from them.
	if want := st.DataSent + 1; e.SeqState().NextSeq != want {
		t.Fatalf("nextSeq=%d, want %d (drops must not burn sequence numbers)", e.SeqState().NextSeq, want)
	}
}

// TestReliableReorderBufferBounded pins the receiver's parked-message
// memory: a reorder storm that never fills the gap must cap the buffer at
// MaxReorder, refuse the overflow un-acked (so the sender retries), and
// keep the cumulative ack flowing.
func TestReliableReorderBufferBounded(t *testing.T) {
	s := sim.New(1)
	out := &scriptedTransport{}
	in := &scriptedTransport{}
	cfg := ReliableConfig{MaxReorder: 32}
	e := NewReliableEndpoint(s, "e", out, in, cfg)
	var delivered []Message
	e.SetReceiver(func(m Message) { delivered = append(delivered, m) })

	// Seq 1 never arrives: everything parks behind the gap.
	const n = 500
	for seq := uint64(2); seq < 2+n; seq++ {
		in.deliver(Message{Kind: KindTrigger, Target: "e", Entity: 1, Seq: seq})
	}

	if got := e.Buffered(); got != 32 {
		t.Fatalf("buffered = %d, want exactly the 32 cap", got)
	}
	st := e.Stats()
	if st.ReorderDrops != n-32 {
		t.Fatalf("reorderDrops = %d, want %d", st.ReorderDrops, n-32)
	}
	if len(delivered) != 0 {
		t.Fatalf("delivered %d messages through an unfilled gap", len(delivered))
	}
	// Refused arrivals still get a cumulative-only ack (Seq 0), never a
	// selective ack that would stop the sender's retransmission.
	var sel, cumOnly int
	for _, m := range out.sent {
		if m.Kind != KindAck {
			continue
		}
		if m.Seq == 0 {
			cumOnly++
		} else {
			sel++
		}
	}
	if sel != 32 || cumOnly != n-32 {
		t.Fatalf("acks: selective=%d cumulative-only=%d, want 32/%d", sel, cumOnly, n-32)
	}

	// Filling the gap drains the parked window and the buffer empties.
	in.deliver(Message{Kind: KindTrigger, Target: "e", Entity: 1, Seq: 1})
	if e.Buffered() != 0 {
		t.Fatalf("buffer not drained after gap fill: %d", e.Buffered())
	}
	if len(delivered) != 33 { // seq 1 plus the 32 parked
		t.Fatalf("delivered %d after gap fill, want 33", len(delivered))
	}
}

// TestReliableFlushStaleKeepsTriggers: FlushStale cancels outstanding
// at-most-once messages (a dead primary's in-flight Tunes) but leaves
// at-least-once Triggers retrying — they are safe to apply late.
func TestReliableFlushStaleKeepsTriggers(t *testing.T) {
	s := sim.New(1)
	out := &scriptedTransport{}
	in := &scriptedTransport{}
	e := NewReliableEndpoint(s, "e", out, in, ReliableConfig{})

	e.Send(Message{Kind: KindTune, Target: "b", Entity: 1, Delta: 1})
	e.Send(Message{Kind: KindTrigger, Target: "b", Entity: 1})
	e.Send(Message{Kind: KindTune, Target: "b", Entity: 1, Delta: 2})
	e.Send(Message{Kind: KindShed, Target: "b", Entity: 1, Delta: 3})
	if e.Outstanding() != 4 {
		t.Fatalf("outstanding = %d", e.Outstanding())
	}

	if n := e.FlushStale(); n != 3 {
		t.Fatalf("flushed %d, want 3 (two tunes + one shed)", n)
	}
	if e.Outstanding() != 1 {
		t.Fatalf("outstanding after flush = %d, want the trigger only", e.Outstanding())
	}
	var nilEP *ReliableEndpoint
	if nilEP.FlushStale() != 0 || nilEP.SeqState() != (EndpointSeqState{}) {
		t.Fatal("nil endpoint helpers not nil-safe")
	}
}

// TestWatchdogFlapHysteresis: an island that dies and rejoins in rapid
// cycles must not inflate LeaseExpiries/Rejoins pair-per-cycle. With
// hysteresis, the churn counts once: the first real expiry, N suppressed
// flaps, and one matured rejoin when the island finally stays up.
func TestWatchdogFlapHysteresis(t *testing.T) {
	t.Run("star", func(t *testing.T) {
		tb := newStarTestbed(t)
		testFlapHysteresis(t, tb.s, tb.ag, tb.ctrl)
	})
}

// testFlapHysteresis crashes and restarts the "ixp" island's agent in
// cycles shorter than the rejoin hysteresis and checks what ctrl counted.
func testFlapHysteresis(t *testing.T, s *sim.Simulator, ag *Agent, ctrl *Controller) {
	var rejoinHooks int
	ag.EnableHeartbeat(s, 10*sim.Millisecond)
	ctrl.EnableWatchdog(s, WatchdogConfig{
		CheckPeriod:      10 * sim.Millisecond,
		SuspectAfter:     20 * sim.Millisecond,
		DeadAfter:        40 * sim.Millisecond,
		RejoinHysteresis: 200 * sim.Millisecond,
		OnRejoin:         func(string) { rejoinHooks++ },
	})

	// Five crash/restart cycles, each restart well inside the hysteresis
	// window of the preceding death.
	const cycles = 5
	for k := 0; k < cycles; k++ {
		base := sim.Time(100+k*100) * sim.Millisecond
		s.At(base, func() { ag.SetCrashed(true) })
		s.At(base+60*sim.Millisecond, func() { ag.SetCrashed(false) })
	}
	// Then the island stays up past the hysteresis window.
	s.RunUntil(sim.Time(100+cycles*100)*sim.Millisecond + 300*sim.Millisecond)

	if got := ctrl.LeaseExpiries(); got != 1 {
		t.Errorf("LeaseExpiries = %d, want 1 (flap cycles must not double count)", got)
	}
	if got := ctrl.FlapSuppressed(); got != cycles {
		t.Errorf("FlapSuppressed = %d, want %d", got, cycles)
	}
	if got := ctrl.Rejoins(); got != 1 {
		t.Errorf("Rejoins = %d, want 1 (only the matured rejoin counts)", got)
	}
	// The OnRejoin hook must still fire on every recovery — the baseline
	// revert cancellation depends on it.
	if rejoinHooks != cycles {
		t.Errorf("OnRejoin fired %d times, want %d", rejoinHooks, cycles)
	}
	if st, _ := ctrl.LeaseOf("ixp"); st != LeaseAlive {
		t.Errorf("final lease state = %v", st)
	}
}
