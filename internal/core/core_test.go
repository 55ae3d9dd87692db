package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ixp"
	"repro/internal/netsim"
	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/xen"
)

func TestKindAndMessageStrings(t *testing.T) {
	if KindTune.String() != "tune" || KindTrigger.String() != "trigger" || KindRegister.String() != "register" {
		t.Fatal("kind names wrong")
	}
	if !strings.Contains(Kind(9).String(), "Kind(9)") {
		t.Fatal("unknown kind name wrong")
	}
	m := Message{Kind: KindTune, From: "ixp", Target: "x86", Entity: 2, Delta: -64}
	if got := m.String(); !strings.Contains(got, "delta=-64") || !strings.Contains(got, "ixp->x86") {
		t.Fatalf("tune string = %q", got)
	}
	tr := Message{Kind: KindTrigger, From: "a", Target: "b", Entity: 1}
	if !strings.Contains(tr.String(), "trigger{") {
		t.Fatalf("trigger string = %q", tr.String())
	}
	rg := Message{Kind: KindRegister, From: "a", Target: "b"}
	if !strings.Contains(rg.String(), "register{") {
		t.Fatalf("register string = %q", rg.String())
	}
}

func TestControllerRegistration(t *testing.T) {
	c := NewController()
	if err := c.RegisterIsland(IslandHandle{Name: "x86", Local: func(Message) {}}); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterIsland(IslandHandle{Name: "x86", Local: func(Message) {}}); err == nil {
		t.Fatal("duplicate island accepted")
	}
	if err := c.RegisterIsland(IslandHandle{Name: ""}); err == nil {
		t.Fatal("empty island name accepted")
	}
	if err := c.RegisterIsland(IslandHandle{Name: "bad"}); err == nil {
		t.Fatal("island with neither downlink nor local accepted")
	}
	if err := c.RegisterIsland(IslandHandle{Name: "bad2", Local: func(Message) {}, Downlink: NewSimTransport(sim.New(1), 0)}); err == nil {
		t.Fatal("island with both downlink and local accepted")
	}
	if err := c.RegisterEntity(Entity{ID: 1, Name: "web", Home: "x86"}); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterEntity(Entity{ID: 1, Name: "dup"}); err == nil {
		t.Fatal("duplicate entity accepted")
	}
	if err := c.RegisterEntity(Entity{ID: 2, Home: "nowhere"}); err == nil {
		t.Fatal("entity with unknown home accepted")
	}
	e, ok := c.Entity(1)
	if !ok || e.Name != "web" {
		t.Fatalf("Entity(1) = %+v, %v", e, ok)
	}
	if got := c.Islands(); len(got) != 1 || got[0] != "x86" {
		t.Fatalf("Islands() = %v", got)
	}
}

func TestControllerRouting(t *testing.T) {
	c := NewController()
	var local []Message
	if err := c.RegisterIsland(IslandHandle{Name: "x86", Local: func(m Message) { local = append(local, m) }}); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterEntity(Entity{ID: 1, Name: "vm", Home: "x86"}); err != nil {
		t.Fatal(err)
	}
	c.Route(Message{Kind: KindTune, Target: "x86", Entity: 1, Delta: 5})
	if len(local) != 1 || local[0].Delta != 5 {
		t.Fatalf("local delivery = %v", local)
	}
	c.Route(Message{Kind: KindTune, Target: "gpu", Entity: 1})
	c.Route(Message{Kind: KindTune, Target: "x86", Entity: 99})
	if c.Unroutable() != 2 {
		t.Fatalf("Unroutable = %d", c.Unroutable())
	}
	if c.Routed() != 1 {
		t.Fatalf("Routed = %d", c.Routed())
	}
}

func TestRouteDropPaths(t *testing.T) {
	c := NewController()
	var local []Message
	if err := c.RegisterIsland(IslandHandle{Name: "x86", Local: func(m Message) { local = append(local, m) }}); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterEntity(Entity{ID: 1, Name: "vm", Home: "x86"}); err != nil {
		t.Fatal(err)
	}

	// Unknown target island: dropped before the entity is even checked.
	c.Route(Message{Kind: KindTune, Target: "gpu", Entity: 1})
	if len(local) != 0 {
		t.Fatalf("unknown-target message delivered: %v", local)
	}
	if got, want := c.Unroutable(), uint64(1); got != want {
		t.Fatalf("after unknown target: Unroutable = %d, want %d", got, want)
	}
	if c.Routed() != 0 {
		t.Fatalf("after unknown target: Routed = %d, want 0", c.Routed())
	}

	// Known target but unregistered entity: dropped too.
	c.Route(Message{Kind: KindTrigger, Target: "x86", Entity: 99})
	if len(local) != 0 {
		t.Fatalf("unknown-entity message delivered: %v", local)
	}
	if got, want := c.Unroutable(), uint64(2); got != want {
		t.Fatalf("after unknown entity: Unroutable = %d, want %d", got, want)
	}
	if c.Routed() != 0 {
		t.Fatalf("after unknown entity: Routed = %d, want 0", c.Routed())
	}

	// A routable message still goes through and leaves the drop counter
	// untouched.
	c.Route(Message{Kind: KindTune, Target: "x86", Entity: 1, Delta: 7})
	if len(local) != 1 || local[0].Delta != 7 {
		t.Fatalf("routable message delivery = %v", local)
	}
	if c.Routed() != 1 || c.Unroutable() != 2 {
		t.Fatalf("final counters: Routed = %d, Unroutable = %d", c.Routed(), c.Unroutable())
	}
}

func TestKindStringRoundTrip(t *testing.T) {
	names := map[Kind]string{
		KindTune:      "tune",
		KindTrigger:   "trigger",
		KindRegister:  "register",
		KindAck:       "ack",
		KindHeartbeat: "heartbeat",
		KindShed:      "shed",
	}
	seen := map[string]Kind{}
	for k, want := range names {
		got := k.String()
		if got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
		if prev, dup := seen[got]; dup {
			t.Errorf("kinds %d and %d share the name %q", int(prev), int(k), got)
		}
		seen[got] = k
	}
	// Out-of-range kinds must stay distinguishable: the fallback embeds the
	// numeric value instead of collapsing to one opaque name.
	for _, k := range []Kind{Kind(-1), Kind(6), Kind(42)} {
		got := k.String()
		if want := fmt.Sprintf("Kind(%d)", int(k)); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestControllerRoutesOverDownlink(t *testing.T) {
	s := sim.New(1)
	c := NewController()
	down := NewSimTransport(s, 10*sim.Microsecond)
	var got []Message
	down.SetReceiver(func(m Message) { got = append(got, m) })
	if err := c.RegisterIsland(IslandHandle{Name: "ixp", Downlink: down}); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterEntity(Entity{ID: 3, Home: "ixp"}); err != nil {
		t.Fatal(err)
	}
	c.Route(Message{Kind: KindTrigger, Target: "ixp", Entity: 3})
	s.Run()
	if len(got) != 1 || got[0].Kind != KindTrigger {
		t.Fatalf("downlink delivery = %v", got)
	}
}

// fakeActuator records applied actions.
type fakeActuator struct {
	tunes    []int
	triggers []int
	fail     bool
	onApply  func() // optional hook run on every successful apply
}

func (f *fakeActuator) ApplyTune(e, d int) error {
	if f.fail {
		return errFail
	}
	f.tunes = append(f.tunes, d)
	f.applied()
	return nil
}
func (f *fakeActuator) ApplyTrigger(e int) error {
	if f.fail {
		return errFail
	}
	f.triggers = append(f.triggers, e)
	f.applied()
	return nil
}

func (f *fakeActuator) applied() {
	if f.onApply != nil {
		f.onApply()
	}
}

var errFail = &failErr{}

type failErr struct{}

func (*failErr) Error() string { return "fail" }

func TestAgentEndToEndOverMailbox(t *testing.T) {
	s := sim.New(1)
	mb := pcie.NewMailbox(s, 150*sim.Microsecond)
	ctrl := NewController()

	// x86 side: co-located with controller.
	x86Act := &fakeActuator{}
	x86 := NewAgent("x86", nil, ctrl.Route, x86Act)
	if err := ctrl.RegisterIsland(IslandHandle{Name: "x86", Local: x86.Deliver}); err != nil {
		t.Fatal(err)
	}
	// IXP side: reaches the controller over the mailbox.
	up := NewDeviceUplink(mb)
	up.SetReceiver(ctrl.Route) // host receives -> controller routes
	ixpAgent := NewAgent("ixp", up, nil, nil)

	if err := ctrl.RegisterEntity(Entity{ID: 1, Name: "web", Home: "x86"}); err != nil {
		t.Fatal(err)
	}

	if !ixpAgent.SendTune("x86", 1, +64) {
		t.Fatal("SendTune rate-limited unexpectedly")
	}
	ixpAgent.SendTrigger("x86", 1)
	s.Run()

	if len(x86Act.tunes) != 1 || x86Act.tunes[0] != 64 {
		t.Fatalf("tunes applied = %v", x86Act.tunes)
	}
	if len(x86Act.triggers) != 1 {
		t.Fatalf("triggers applied = %v", x86Act.triggers)
	}
	st := ixpAgent.Stats()
	if st.TunesSent != 1 || st.TriggersSent != 1 {
		t.Fatalf("sender stats = %+v", st)
	}
	xs := x86.Stats()
	if xs.TunesApplied != 1 || xs.TriggersApplied != 1 {
		t.Fatalf("receiver stats = %+v", xs)
	}
}

func TestAgentDeliveryLatencyMatchesMailbox(t *testing.T) {
	s := sim.New(1)
	mb := pcie.NewMailbox(s, 150*sim.Microsecond)
	ctrl := NewController()
	var appliedAt sim.Time
	act := &fakeActuator{onApply: func() { appliedAt = s.Now() }}
	x86 := NewAgent("x86", nil, ctrl.Route, act)
	if err := ctrl.RegisterIsland(IslandHandle{Name: "x86", Local: x86.Deliver}); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.RegisterEntity(Entity{ID: 1, Home: "x86"}); err != nil {
		t.Fatal(err)
	}
	up := NewDeviceUplink(mb)
	up.SetReceiver(ctrl.Route)
	agent := NewAgent("ixp", up, nil, nil)
	agent.SendTune("x86", 1, 1)
	s.Run()
	if appliedAt != 150*sim.Microsecond {
		t.Fatalf("applied at %v, want 150us (one mailbox hop)", appliedAt)
	}
}

func TestAgentApplyErrorsCounted(t *testing.T) {
	act := &fakeActuator{fail: true}
	a := NewAgent("x", nil, func(Message) {}, act)
	a.Deliver(Message{Kind: KindTune, Entity: 1, Delta: 1})
	a.Deliver(Message{Kind: KindTrigger, Entity: 1})
	a.Deliver(Message{Kind: KindRegister})
	if got := a.Stats().ApplyErrors; got != 3 {
		t.Fatalf("ApplyErrors = %d", got)
	}
}

func TestAgentNilActuatorCountsError(t *testing.T) {
	a := NewAgent("x", nil, func(Message) {}, nil)
	a.Deliver(Message{Kind: KindTune})
	if a.Stats().ApplyErrors != 1 {
		t.Fatal("nil actuator delivery not counted as error")
	}
}

func TestAgentConstructionPanics(t *testing.T) {
	s := sim.New(1)
	tr := NewSimTransport(s, 0)
	for _, fn := range []func(){
		func() { NewAgent("", tr, nil, nil) },
		func() { NewAgent("x", nil, nil, nil) },
		func() { NewAgent("x", tr, func(Message) {}, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad agent construction did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestAgentRateLimit(t *testing.T) {
	s := sim.New(1)
	var routed int
	a := NewAgent("ixp", nil, func(Message) { routed++ }, nil,
		WithRateLimit(s, 10*sim.Millisecond))
	s.At(0, func() {
		a.SendTune("x86", 1, 1) // allowed
		a.SendTune("x86", 1, 1) // dropped (same entity+kind)
		a.SendTune("x86", 2, 1) // allowed (different entity)
		a.SendTrigger("x86", 1) // allowed (different kind)
	})
	s.At(15*sim.Millisecond, func() {
		a.SendTune("x86", 1, 1) // allowed again after interval
	})
	s.Run()
	if routed != 4 {
		t.Fatalf("routed = %d, want 4", routed)
	}
	if got := a.Stats().RateLimitDropped; got != 1 {
		t.Fatalf("RateLimitDropped = %d", got)
	}
}

func TestRateLimiterZeroIntervalAllowsAll(t *testing.T) {
	s := sim.New(1)
	r := NewRateLimiter(s, 0)
	for i := 0; i < 10; i++ {
		if !r.Allow(KindTune, 1) {
			t.Fatal("zero-interval limiter dropped a message")
		}
	}
	if r.Interval() != 0 {
		t.Fatal("Interval() wrong")
	}
}

func TestRateLimiterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative interval did not panic")
		}
	}()
	NewRateLimiter(sim.New(1), -1)
}

func TestSimTransportValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative latency did not panic")
		}
	}()
	NewSimTransport(sim.New(1), -1)
}

func TestSimTransportCountsAndDelivers(t *testing.T) {
	s := sim.New(1)
	tr := NewSimTransport(s, 5*sim.Microsecond)
	var got []Message
	tr.SetReceiver(func(m Message) { got = append(got, m) })
	tr.Send(Message{Kind: KindTune, Entity: 1})
	tr.Send(Message{Kind: KindTrigger, Entity: 2})
	s.Run()
	if tr.Sent() != 2 || len(got) != 2 {
		t.Fatalf("Sent = %d, delivered = %d", tr.Sent(), len(got))
	}
}

func TestHostDownlinkDirection(t *testing.T) {
	s := sim.New(1)
	mb := pcie.NewMailbox(s, sim.Microsecond)
	down := NewHostDownlink(mb)
	var got []Message
	down.SetReceiver(func(m Message) { got = append(got, m) })
	down.Send(Message{Kind: KindTune, Entity: 7})
	s.Run()
	if len(got) != 1 || got[0].Entity != 7 {
		t.Fatalf("downlink delivery = %v", got)
	}
}

func TestX86ActuatorAppliesWeightAndBoost(t *testing.T) {
	s := sim.New(1)
	hv := xen.New(s, xen.Options{NumPCPUs: 1})
	d := hv.CreateDomain("web", 256)
	hv.Start()
	act := NewX86Actuator(xen.NewCtl(hv))
	if err := act.ApplyTune(d.ID(), +64); err != nil {
		t.Fatal(err)
	}
	if d.Weight() != 320 {
		t.Fatalf("weight = %d, want 320", d.Weight())
	}
	// Clamping.
	if err := act.ApplyTune(d.ID(), -100000); err != nil {
		t.Fatal(err)
	}
	if d.Weight() != act.MinWeight {
		t.Fatalf("weight = %d, want clamp %d", d.Weight(), act.MinWeight)
	}
	if err := act.ApplyTune(d.ID(), +100000); err != nil {
		t.Fatal(err)
	}
	if d.Weight() != act.MaxWeight {
		t.Fatalf("weight = %d, want clamp %d", d.Weight(), act.MaxWeight)
	}
	if err := act.ApplyTrigger(d.ID()); err != nil {
		t.Fatal(err)
	}
	if err := act.ApplyTune(99, 1); err == nil {
		t.Fatal("unknown entity accepted")
	}
	if err := act.ApplyTrigger(99); err == nil {
		t.Fatal("unknown entity trigger accepted")
	}
}

func newIXPForTest(s *sim.Simulator) *ixp.IXP {
	ch := pcie.NewChannel(s, "c", pcie.Config{})
	return ixp.New(s, ixp.Config{ThreadsPerFlow: 2}, ch, func(*netsim.Packet) {})
}

func TestIXPActuatorTune(t *testing.T) {
	s := sim.New(1)
	x := newIXPForTest(s)
	x.RegisterFlow(1)
	act := NewIXPActuator(s, x)
	if err := act.ApplyTune(1, +2); err != nil {
		t.Fatal(err)
	}
	if got := x.FlowThreads(1); got != 4 {
		t.Fatalf("threads = %d, want 4", got)
	}
	// Floor at 1.
	if err := act.ApplyTune(1, -100); err != nil {
		t.Fatal(err)
	}
	if got := x.FlowThreads(1); got != 1 {
		t.Fatalf("threads = %d, want 1", got)
	}
	if err := act.ApplyTune(9, 1); err == nil {
		t.Fatal("unknown flow accepted")
	}
}

func TestIXPActuatorTriggerTransient(t *testing.T) {
	s := sim.New(1)
	x := newIXPForTest(s)
	x.RegisterFlow(1)
	act := NewIXPActuator(s, x)
	if err := act.ApplyTrigger(1); err != nil {
		t.Fatal(err)
	}
	if got := x.FlowThreads(1); got != 4 {
		t.Fatalf("threads during trigger = %d, want 4", got)
	}
	// Overlapping trigger does not stack.
	if err := act.ApplyTrigger(1); err != nil {
		t.Fatal(err)
	}
	if got := x.FlowThreads(1); got != 4 {
		t.Fatalf("threads after overlapping trigger = %d, want 4", got)
	}
	s.RunUntil(200 * sim.Millisecond)
	if got := x.FlowThreads(1); got != 2 {
		t.Fatalf("threads after hold = %d, want restored 2", got)
	}
	if err := act.ApplyTrigger(42); err == nil {
		t.Fatal("unknown flow trigger accepted")
	}
}

func TestRequestClassPolicy(t *testing.T) {
	var sent []Message
	a := NewAgent("ixp", nil, func(m Message) { sent = append(sent, m) }, nil)
	p := NewRequestClassPolicy(a, "x86", TierEntities{Web: 1, App: 2, DB: 3}, 64)
	p.OnRequest(ReadRequest)
	if len(sent) != 3 {
		t.Fatalf("read request sent %d messages", len(sent))
	}
	byEntity := map[int]int{}
	for _, m := range sent {
		byEntity[m.Entity] = m.Delta
	}
	if byEntity[1] != p.ReadWebUp || byEntity[2] != p.AppUp || byEntity[3] != p.ReadDBDown {
		t.Fatalf("read deltas = %v", byEntity)
	}
	if byEntity[1] <= 0 || byEntity[3] >= 0 {
		t.Fatalf("read deltas have wrong signs: %v", byEntity)
	}
	sent = nil
	p.OnRequest(WriteRequest)
	byEntity = map[int]int{}
	for _, m := range sent {
		byEntity[m.Entity] = m.Delta
	}
	if byEntity[3] != p.WriteDBUp || byEntity[2] != p.AppUp || byEntity[1] != p.WriteWebDown {
		t.Fatalf("write deltas = %v", byEntity)
	}
	if byEntity[3] <= 0 || byEntity[1] >= 0 {
		t.Fatalf("write deltas have wrong signs: %v", byEntity)
	}
	sent = nil
	p.OnRequest(NeutralRequest)
	if len(sent) != 0 {
		t.Fatal("neutral request sent messages")
	}
	r, w := p.Counts()
	if r != 1 || w != 1 {
		t.Fatalf("Counts = %d, %d", r, w)
	}
}

func TestRequestClassPolicyDefaultsAndPanics(t *testing.T) {
	a := NewAgent("ixp", nil, func(Message) {}, nil)
	p := NewRequestClassPolicy(a, "x86", TierEntities{}, 0)
	if p.step != 64 {
		t.Fatalf("default step = %d", p.step)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("nil agent did not panic")
		}
	}()
	NewRequestClassPolicy(nil, "x86", TierEntities{}, 0)
}

func TestStreamQoSPolicy(t *testing.T) {
	var sent []Message
	a := NewAgent("ixp", nil, func(m Message) { sent = append(sent, m) }, nil)
	p := NewStreamQoSPolicy(a, "x86")
	// The paper's two streams: 1 Mbit/25fps gets both increments (256->512
	// from base 256); 300 kbit/20fps gets the bitrate increment only
	// (256->384); a genuinely low stream gets a decrease.
	p.OnSession(ixp.StreamState{VMID: 1, BitrateBn: 1e6, FrameRate: 25})
	p.OnSession(ixp.StreamState{VMID: 2, BitrateBn: 300e3, FrameRate: 20})
	p.OnSession(ixp.StreamState{VMID: 3, BitrateBn: 100e3, FrameRate: 15})
	if len(sent) != 3 {
		t.Fatalf("sent %d messages", len(sent))
	}
	if sent[0].Entity != 1 || sent[0].Delta != 2*p.IncreaseStep {
		t.Fatalf("high stream tune = %v", sent[0])
	}
	if sent[1].Entity != 2 || sent[1].Delta != p.IncreaseStep {
		t.Fatalf("mid stream tune = %v", sent[1])
	}
	if sent[2].Entity != 3 || sent[2].Delta != p.DecreaseStep {
		t.Fatalf("low stream tune = %v", sent[2])
	}
	// High frame-rate alone qualifies for one increment.
	if got := p.DeltaFor(ixp.StreamState{VMID: 4, BitrateBn: 100e3, FrameRate: 30}); got != p.IncreaseStep {
		t.Fatalf("frame-rate-only delta = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("nil agent did not panic")
		}
	}()
	NewStreamQoSPolicy(nil, "x86")
}

func TestBufferWatermarkPolicy(t *testing.T) {
	s := sim.New(1)
	ch := pcie.NewChannel(s, "c", pcie.Config{})
	x := ixp.New(s, ixp.Config{
		ThreadsPerFlow: 1,
		DequeueCost:    10 * sim.Millisecond, // slow drain so the buffer fills
		BufferBytes:    1 << 20,
	}, ch, func(*netsim.Packet) {})
	x.RegisterFlow(1)

	var sent []Message
	a := NewAgent("ixp", nil, func(m Message) { sent = append(sent, m) }, nil)
	p := NewBufferWatermarkPolicy(a, "x86", 0)
	if p.Threshold() != DefaultWatermark {
		t.Fatalf("Threshold = %d, want default 128KB", p.Threshold())
	}
	if err := p.Attach(x, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.Attach(x, 42); err == nil {
		t.Fatal("attach to unknown flow accepted")
	}
	// Fill past 128 KB.
	for i := uint64(0); i < 100; i++ {
		x.Receive(&netsim.Packet{ID: i, Size: 1500, DstVM: 1})
	}
	s.RunUntil(10 * sim.Millisecond)
	if p.Fired() != 1 {
		t.Fatalf("policy fired %d times, want 1", p.Fired())
	}
	if len(sent) != 1 || sent[0].Kind != KindTrigger || sent[0].Entity != 1 {
		t.Fatalf("sent = %v", sent)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("nil agent did not panic")
		}
	}()
	NewBufferWatermarkPolicy(nil, "x86", 0)
}

func TestIXPPollActuator(t *testing.T) {
	s := sim.New(1)
	x := newIXPForTest(s)
	x.RegisterFlow(1)
	a := NewIXPPollActuator(x)
	base := x.FlowPollInterval(1)
	if base == 0 {
		t.Fatal("no default poll interval")
	}
	if err := a.ApplyTune(1, +2); err != nil {
		t.Fatal(err)
	}
	faster := x.FlowPollInterval(1)
	if faster >= base {
		t.Fatalf("positive tune did not shorten poll: %v -> %v", base, faster)
	}
	if err := a.ApplyTune(1, -4); err != nil {
		t.Fatal(err)
	}
	slower := x.FlowPollInterval(1)
	if slower <= faster {
		t.Fatalf("negative tune did not lengthen poll: %v -> %v", faster, slower)
	}
	// Clamping.
	if err := a.ApplyTune(1, +1000); err != nil {
		t.Fatal(err)
	}
	if got := x.FlowPollInterval(1); got != a.MinInterval {
		t.Fatalf("poll = %v, want min clamp %v", got, a.MinInterval)
	}
	if err := a.ApplyTune(1, -1000); err != nil {
		t.Fatal(err)
	}
	if got := x.FlowPollInterval(1); got != a.MaxInterval {
		t.Fatalf("poll = %v, want max clamp %v", got, a.MaxInterval)
	}
	if err := a.ApplyTrigger(1); err != nil {
		t.Fatal(err)
	}
	if got := x.FlowPollInterval(1); got != a.MinInterval {
		t.Fatalf("trigger poll = %v, want min", got)
	}
	if err := a.ApplyTune(9, 1); err == nil {
		t.Fatal("unknown flow accepted")
	}
	if err := a.ApplyTrigger(9); err == nil {
		t.Fatal("unknown flow trigger accepted")
	}
}

func TestX86ActuatorLoadTracking(t *testing.T) {
	s := sim.New(1)
	hv := xen.New(s, xen.Options{NumPCPUs: 1})
	d := hv.CreateDomain("vm", 256)
	hv.Start()
	act := NewX86Actuator(xen.NewCtl(hv))
	act.MinWeight = 100
	act.MaxWeight = 2000
	stop := act.EnableLoadTracking(s, sim.Second, 100*sim.Millisecond)
	// Tunes accumulate into mass: weight = min + mass.
	if err := act.ApplyTune(d.ID(), +500); err != nil {
		t.Fatal(err)
	}
	if got := d.Weight(); got != 600 {
		t.Fatalf("weight = %d, want min(100)+500", got)
	}
	// Negative mass clamps at zero.
	if err := act.ApplyTune(d.ID(), -10000); err != nil {
		t.Fatal(err)
	}
	if got := d.Weight(); got != 100 {
		t.Fatalf("weight = %d, want floor 100", got)
	}
	// Mass above max clamps at MaxWeight.
	if err := act.ApplyTune(d.ID(), +50000); err != nil {
		t.Fatal(err)
	}
	if got := d.Weight(); got != 2000 {
		t.Fatalf("weight = %d, want cap 2000", got)
	}
	// Decay pulls the weight back toward the floor over ~tau.
	if err := act.ApplyTune(d.ID(), -49000); err != nil { // mass 1000
		t.Fatal(err)
	}
	w0 := d.Weight()
	s.RunUntil(3 * sim.Second)
	if got := d.Weight(); got >= w0/2 {
		t.Fatalf("weight = %d after 3 tau, want decayed well below %d", got, w0)
	}
	stop()
	// Unknown entities still rejected in tracking mode.
	if err := act.ApplyTune(99, 1); err == nil {
		t.Fatal("unknown entity accepted in tracking mode")
	}
	// Invalid tracking configs panic.
	defer func() {
		if recover() == nil {
			t.Fatal("invalid tracking config did not panic")
		}
	}()
	act.EnableLoadTracking(s, 0, sim.Second)
}

func TestX86ActuatorTriggerSurge(t *testing.T) {
	s := sim.New(1)
	hv := xen.New(s, xen.Options{NumPCPUs: 1})
	d := hv.CreateDomain("vm", 256)
	hv.Start()
	act := NewX86Actuator(xen.NewCtl(hv))
	act.EnableTriggerSurge(s, 2.0, 100*sim.Millisecond)
	if err := act.ApplyTrigger(d.ID()); err != nil {
		t.Fatal(err)
	}
	if got := d.Weight(); got != 512 {
		t.Fatalf("surged weight = %d, want 512", got)
	}
	// Overlapping trigger extends rather than stacks.
	s.RunUntil(50 * sim.Millisecond)
	if err := act.ApplyTrigger(d.ID()); err != nil {
		t.Fatal(err)
	}
	if got := d.Weight(); got != 512 {
		t.Fatalf("weight after overlapping trigger = %d", got)
	}
	// Restores after the (extended) hold.
	s.RunUntil(120 * sim.Millisecond)
	if got := d.Weight(); got != 512 {
		t.Fatalf("surge ended early: %d", got)
	}
	s.RunUntil(200 * sim.Millisecond)
	if got := d.Weight(); got != 256 {
		t.Fatalf("weight = %d after hold, want restored 256", got)
	}
	if err := act.ApplyTrigger(99); err == nil {
		t.Fatal("unknown entity trigger accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid surge config did not panic")
		}
	}()
	act.EnableTriggerSurge(s, 0.5, sim.Second)
}

func TestLoadTrackPolicyUnit(t *testing.T) {
	var sent []Message
	a := NewAgent("ixp", nil, func(m Message) { sent = append(sent, m) }, nil)
	p := NewLoadTrackPolicy(a, "x86", TierEntities{Web: 1, App: 2, DB: 3})
	p.Scale = 2
	p.OnRequest(10, 5, 0) // db zero demand: no message for it
	if p.Requests() != 1 {
		t.Fatalf("Requests = %d", p.Requests())
	}
	if len(sent) != 2 {
		t.Fatalf("sent %d messages, want 2", len(sent))
	}
	if sent[0].Entity != 1 || sent[0].Delta != 20 {
		t.Fatalf("web tune = %v", sent[0])
	}
	if sent[1].Entity != 2 || sent[1].Delta != 10 {
		t.Fatalf("app tune = %v", sent[1])
	}
	defer func() {
		if recover() == nil {
			t.Fatal("nil agent did not panic")
		}
	}()
	NewLoadTrackPolicy(nil, "x86", TierEntities{})
}

func TestOutstandingLoadPolicyUnit(t *testing.T) {
	var sent []Message
	a := NewAgent("ixp", nil, func(m Message) { sent = append(sent, m) }, nil)
	p := NewOutstandingLoadPolicy(a, "x86", TierEntities{Web: 1, App: 2, DB: 3})
	p.OnRequest(10, 4, 20)
	p.OnResponse(10, 4, 20)
	req, resp := p.Counts()
	if req != 1 || resp != 1 {
		t.Fatalf("Counts = %d, %d", req, resp)
	}
	if len(sent) != 6 {
		t.Fatalf("sent %d messages, want 6", len(sent))
	}
	// Urgency factors: web x3, app x1.5, db x1; response mirrors negatively.
	if sent[0].Delta != 30 || sent[1].Delta != 6 || sent[2].Delta != 20 {
		t.Fatalf("request deltas = %d %d %d", sent[0].Delta, sent[1].Delta, sent[2].Delta)
	}
	if sent[3].Delta != -30 || sent[4].Delta != -6 || sent[5].Delta != -20 {
		t.Fatalf("response deltas = %d %d %d", sent[3].Delta, sent[4].Delta, sent[5].Delta)
	}
	// Request/response deltas telescope to zero.
	sum := 0
	for _, m := range sent {
		sum += m.Delta
	}
	if sum != 0 {
		t.Fatalf("deltas do not telescope: %d", sum)
	}
	if a.Name() != "ixp" {
		t.Fatal("Name wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("nil agent did not panic")
		}
	}()
	NewOutstandingLoadPolicy(nil, "x86", TierEntities{})
}
