package core

import (
	"testing"

	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/xen"
)

// starTestbed wires a controller plus one remote agent over SimTransports —
// the minimal star topology for liveness tests.
type starTestbed struct {
	s    *sim.Simulator
	ctrl *Controller
	act  *fakeActuator
	ag   *Agent
}

func newStarTestbed(t *testing.T) *starTestbed {
	t.Helper()
	s := sim.New(1)
	ctrl := NewController()
	up := NewSimTransport(s, 100*sim.Microsecond)
	down := NewSimTransport(s, 100*sim.Microsecond)
	up.SetReceiver(ctrl.Route)
	act := &fakeActuator{}
	ag := NewAgent("ixp", up, nil, act)
	down.SetReceiver(ag.Deliver)
	if err := ctrl.RegisterIsland(IslandHandle{Name: "ixp", Downlink: down}); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.RegisterEntity(Entity{ID: 1, Home: "ixp"}); err != nil {
		t.Fatal(err)
	}
	return &starTestbed{s: s, ctrl: ctrl, act: act, ag: ag}
}

func TestWatchdogLeaseLifecycle(t *testing.T) {
	tb := newStarTestbed(t)
	var suspects, deads, rejoins []string
	tb.ag.EnableHeartbeat(tb.s, 10*sim.Millisecond)
	tb.ctrl.EnableWatchdog(tb.s, WatchdogConfig{
		CheckPeriod:  10 * sim.Millisecond,
		SuspectAfter: 30 * sim.Millisecond,
		DeadAfter:    80 * sim.Millisecond,
		OnSuspect:    func(n string) { suspects = append(suspects, n) },
		OnDead:       func(n string) { deads = append(deads, n) },
		OnRejoin:     func(n string) { rejoins = append(rejoins, n) },
	})

	// Crash the island at 100ms, restart at 300ms.
	tb.s.At(100*sim.Millisecond, func() { tb.ag.SetCrashed(true) })
	tb.s.At(300*sim.Millisecond, func() { tb.ag.SetCrashed(false) })

	var stateAt150, stateAt250, stateAt380 LeaseState
	tb.s.At(150*sim.Millisecond, func() { stateAt150, _ = tb.ctrl.LeaseOf("ixp") })
	tb.s.At(250*sim.Millisecond, func() { stateAt250, _ = tb.ctrl.LeaseOf("ixp") })
	// Route into the dead island: must be quarantined, not delivered.
	tb.s.At(260*sim.Millisecond, func() {
		tb.ctrl.Route(Message{Kind: KindTune, Target: "ixp", Entity: 1, Delta: 5})
	})
	tb.s.At(380*sim.Millisecond, func() {
		stateAt380, _ = tb.ctrl.LeaseOf("ixp")
		tb.ctrl.Route(Message{Kind: KindTune, Target: "ixp", Entity: 1, Delta: 9})
	})
	tb.s.RunUntil(400 * sim.Millisecond)

	if stateAt150 != LeaseSuspect {
		t.Errorf("state at 150ms = %v, want suspect", stateAt150)
	}
	if stateAt250 != LeaseDead {
		t.Errorf("state at 250ms = %v, want dead", stateAt250)
	}
	if stateAt380 != LeaseAlive {
		t.Errorf("state at 380ms = %v, want alive after rejoin", stateAt380)
	}
	if len(suspects) == 0 || len(deads) != 1 || len(rejoins) != 1 {
		t.Errorf("hooks: suspects=%v deads=%v rejoins=%v", suspects, deads, rejoins)
	}
	if tb.ctrl.LeaseExpiries() != 1 || tb.ctrl.Rejoins() != 1 {
		t.Errorf("LeaseExpiries=%d Rejoins=%d, want 1/1", tb.ctrl.LeaseExpiries(), tb.ctrl.Rejoins())
	}
	if got := tb.ctrl.UnroutableFor(UnrouteQuarantined); got != 1 {
		t.Errorf("quarantined drops = %d, want 1", got)
	}
	// The post-rejoin tune was delivered; the quarantined one never was.
	if len(tb.act.tunes) != 1 || tb.act.tunes[0] != 9 {
		t.Errorf("applied tunes = %v, want [9]", tb.act.tunes)
	}
	if tb.ag.Stats().CrashDrops == 0 {
		t.Error("no inbound drops recorded during the crash window")
	}
	if tb.ctrl.Heartbeats() == 0 {
		t.Error("controller observed no heartbeats")
	}
}

func TestAgentDegradesAndRecovers(t *testing.T) {
	s := sim.New(1)
	ctrl := NewController()
	up := NewSimTransport(s, 100*sim.Microsecond)
	down := NewSimTransport(s, 100*sim.Microsecond)
	// Partition the downlink 100ms..300ms: the agent stops seeing
	// controller pings, so its own monitor must declare the uplink dead
	// and silence policy output until pings resume.
	inj := pcie.NewInjector(pcie.FaultPlan{Partitions: []pcie.Partition{{
		Start: 100 * sim.Millisecond, Duration: 200 * sim.Millisecond,
	}}})
	down.SetFaults(inj.Channel("down"))
	up.SetReceiver(ctrl.Route)
	ag := NewAgent("ixp", up, nil, &fakeActuator{})
	down.SetReceiver(ag.Deliver)
	if err := ctrl.RegisterIsland(IslandHandle{Name: "ixp", Downlink: down}); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.RegisterEntity(Entity{ID: 1, Home: "ixp"}); err != nil {
		t.Fatal(err)
	}
	ag.EnableHeartbeat(s, 10*sim.Millisecond)
	ctrl.EnableWatchdog(s, WatchdogConfig{CheckPeriod: 10 * sim.Millisecond})
	ag.EnableDegradation(s, DegradeConfig{
		CheckPeriod:  10 * sim.Millisecond,
		LeaseTimeout: 50 * sim.Millisecond,
	})

	var degradedAt200, degradedAt390 bool
	var sendWhileDegraded bool
	s.At(200*sim.Millisecond, func() {
		degradedAt200 = ag.Degraded()
		sendWhileDegraded = ag.SendTune("x86", 1, 2)
	})
	s.At(390*sim.Millisecond, func() { degradedAt390 = ag.Degraded() })
	s.RunUntil(400 * sim.Millisecond)

	if !degradedAt200 {
		t.Error("agent not degraded while pings were partitioned away")
	}
	if degradedAt390 {
		t.Error("agent still degraded after pings resumed")
	}
	st := ag.Stats()
	if st.Degradations != 1 || st.Recoveries != 1 {
		t.Errorf("Degradations=%d Recoveries=%d, want 1/1", st.Degradations, st.Recoveries)
	}
	if sendWhileDegraded {
		t.Error("send succeeded while degraded")
	}
	if st.SuppressedDegraded == 0 {
		t.Error("no suppressed-degraded count")
	}
	if st.HeartbeatsSeen == 0 {
		t.Error("agent never saw a controller ping")
	}
}

func TestCrashedAgentSuppressesSends(t *testing.T) {
	tb := newStarTestbed(t)
	tb.ag.SetCrashed(true)
	if tb.ag.SendTune("x86", 1, 1) {
		t.Fatal("crashed agent sent a tune")
	}
	if tb.ag.SendTrigger("x86", 1) {
		t.Fatal("crashed agent sent a trigger")
	}
	if got := tb.ag.Stats().SuppressedCrashed; got != 2 {
		t.Fatalf("SuppressedCrashed = %d, want 2", got)
	}
	if !tb.ag.Crashed() {
		t.Fatal("Crashed() false")
	}
	tb.ag.SetCrashed(false)
	if !tb.ag.SendTune("x86", 1, 1) {
		t.Fatal("restarted agent cannot send")
	}
}

func TestControllerPerReasonUnroutable(t *testing.T) {
	c := NewController()
	var local []Message
	if err := c.RegisterIsland(IslandHandle{Name: "x86", Local: func(m Message) { local = append(local, m) }}); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterEntity(Entity{ID: 1, Home: "x86"}); err != nil {
		t.Fatal(err)
	}
	c.Route(Message{Kind: KindTune, Target: "ghost", Entity: 1})
	c.Route(Message{Kind: KindTune, Target: "ghost", Entity: 1})
	c.Route(Message{Kind: KindTune, Target: "x86", Entity: 99})
	if got := c.UnroutableFor(UnrouteUnknownTarget); got != 2 {
		t.Errorf("unknown-target = %d, want 2", got)
	}
	if got := c.UnroutableFor(UnrouteUnknownEntity); got != 1 {
		t.Errorf("unknown-entity = %d, want 1", got)
	}
	if got := c.UnroutableFor(UnrouteQuarantined); got != 0 {
		t.Errorf("quarantined = %d, want 0", got)
	}
	if c.Unroutable() != 3 {
		t.Errorf("Unroutable = %d, want sum 3", c.Unroutable())
	}
	if c.UnroutableFor(UnrouteReason(77)) != 0 {
		t.Error("out-of-range reason nonzero")
	}
	rows := c.UnroutableByReason()
	if len(rows) != 3 || rows[0].Reason != UnrouteUnknownTarget || rows[0].Count != 2 ||
		rows[1].Reason != UnrouteUnknownEntity || rows[1].Count != 1 ||
		rows[2].Reason != UnrouteQuarantined || rows[2].Count != 0 {
		t.Errorf("UnroutableByReason = %v", rows)
	}
	names := map[string]bool{}
	for _, r := range UnrouteReasons() {
		n := r.String()
		if n == "" || names[n] {
			t.Errorf("reason %d bad name %q", int(r), n)
		}
		names[n] = true
	}
	if UnrouteReason(9).String() == "" {
		t.Error("unknown reason has empty name")
	}
	if len(local) != 0 {
		t.Errorf("unroutable messages leaked: %v", local)
	}
}

func TestControllerConsumesProtocolKinds(t *testing.T) {
	c := NewController()
	delivered := 0
	if err := c.RegisterIsland(IslandHandle{Name: "x86", Local: func(Message) { delivered++ }}); err != nil {
		t.Fatal(err)
	}
	c.Route(Message{Kind: KindAck, Target: "x86", Seq: 1, Ack: 1})
	c.Route(Message{Kind: KindHeartbeat, From: "x86"})
	if delivered != 0 {
		t.Fatal("protocol message routed to an island")
	}
	if c.StrayAcks() != 1 {
		t.Fatalf("StrayAcks = %d, want 1", c.StrayAcks())
	}
	if c.Heartbeats() != 1 {
		t.Fatalf("Heartbeats = %d, want 1", c.Heartbeats())
	}
	if c.Unroutable() != 0 {
		t.Fatalf("protocol messages counted unroutable: %d", c.Unroutable())
	}
	// Lease states: an island that never heartbeated is reported alive
	// without being lease-managed.
	if st, managed := c.LeaseOf("x86"); st != LeaseAlive || managed {
		t.Fatalf("LeaseOf = %v managed=%v", st, managed)
	}
	names := map[string]bool{}
	for _, st := range []LeaseState{LeaseAlive, LeaseSuspect, LeaseDead} {
		n := st.String()
		if n == "" || names[n] {
			t.Errorf("state %d bad name %q", int(st), n)
		}
		names[n] = true
	}
	if LeaseState(7).String() == "" {
		t.Error("unknown state has empty name")
	}
}

func TestX86ActuatorBaselineRevert(t *testing.T) {
	s := sim.New(1)
	hv := xen.New(s, xen.Options{NumPCPUs: 1})
	d := hv.CreateDomain("vm", 256)
	hv.Start()
	ctl := xen.NewCtl(hv)
	x := NewX86Actuator(ctl)
	x.MinWeight = 64
	x.MaxWeight = 2048
	x.SetBaseline(d.ID(), 256)
	if err := x.ApplyTune(d.ID(), +300); err != nil {
		t.Fatal(err)
	}
	if w, _ := ctl.Weight(d.ID()); w != 556 {
		t.Fatalf("weight after tune = %d, want 556", w)
	}
	x.RevertToBaseline()
	if w, _ := ctl.Weight(d.ID()); w != 256 {
		t.Fatalf("weight after revert = %d, want baseline 256", w)
	}
	if x.Reverts() != 1 {
		t.Fatalf("Reverts = %d, want 1", x.Reverts())
	}
	// Load-tracking mode: revert clears accumulated mass too.
	x2 := NewX86Actuator(ctl)
	x2.MinWeight = 64
	x2.MaxWeight = 2048
	x2.EnableLoadTracking(s, 100*sim.Millisecond, 10*sim.Millisecond)
	x2.SetBaseline(d.ID(), 256)
	if err := x2.ApplyTune(d.ID(), 500); err != nil {
		t.Fatal(err)
	}
	if w, _ := ctl.Weight(d.ID()); w != 564 {
		t.Fatalf("tracked weight = %d, want 564", w)
	}
	x2.RevertToBaseline()
	if w, _ := ctl.Weight(d.ID()); w != 256 {
		t.Fatalf("tracked weight after revert = %d, want 256", w)
	}
}
