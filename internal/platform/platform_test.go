package platform

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/energy"
	"repro/internal/flight"
	"repro/internal/overload"
	"repro/internal/sim"
)

func TestNewWiresBothIslands(t *testing.T) {
	p := New(Config{})
	if p.Sim == nil || p.HV == nil || p.IXP == nil || p.Host == nil || p.Controller == nil {
		t.Fatal("platform incompletely assembled")
	}
	if p.Dom0.ID() != 0 || p.Dom0.Name() != "Dom0" {
		t.Fatalf("Dom0 = %d %q", p.Dom0.ID(), p.Dom0.Name())
	}
	islands := p.Controller.Islands()
	if len(islands) != 2 || islands[0] != IXPIsland || islands[1] != X86Island {
		t.Fatalf("islands = %v", islands)
	}
	if got := p.Config().CoordLatency; got != 150*sim.Microsecond {
		t.Fatalf("default coord latency = %v", got)
	}
	if p.Config().MinGuestWeight != 64 || p.Config().MaxGuestWeight != 1024 {
		t.Fatalf("default clamps = %d..%d", p.Config().MinGuestWeight, p.Config().MaxGuestWeight)
	}
}

func TestAddGuestRegistersEverywhere(t *testing.T) {
	p := New(Config{})
	d := p.AddGuest("web", 256)
	if d.ID() != 1 {
		t.Fatalf("guest ID = %d", d.ID())
	}
	if _, ok := p.Controller.Entity(d.ID()); !ok {
		t.Fatal("guest not registered with controller")
	}
	if p.IXP.Flow(d.ID()) == nil {
		t.Fatal("guest has no IXP flow queue")
	}
	got, err := p.GuestByName("web")
	if err != nil || got != d {
		t.Fatalf("GuestByName = %v, %v", got, err)
	}
	if _, err := p.GuestByName("nope"); err == nil {
		t.Fatal("GuestByName found ghost")
	}
	if len(p.Guests()) != 1 {
		t.Fatalf("Guests() = %v", p.Guests())
	}
}

func TestAddLocalGuestSkipsIXP(t *testing.T) {
	p := New(Config{})
	d := p.AddLocalGuest("disk", 256)
	if _, ok := p.Controller.Entity(d.ID()); !ok {
		t.Fatal("local guest not registered with controller")
	}
	if p.IXP.Flow(d.ID()) != nil {
		t.Fatal("local guest should have no IXP flow")
	}
}

func TestCoordinationRoundTripThroughMailbox(t *testing.T) {
	p := New(Config{})
	d := p.AddGuest("vm", 256)
	// IXP-side agent tunes the x86 VM's weight over the mailbox.
	if !p.IXPAgent.SendTune(X86Island, d.ID(), +64) {
		t.Fatal("tune rejected")
	}
	p.Sim.RunUntil(sim.Millisecond)
	if d.Weight() != 320 {
		t.Fatalf("weight = %d after tune, want 320", d.Weight())
	}
	// And the reverse direction: x86 agent tunes the IXP flow's threads.
	before := p.IXP.FlowThreads(d.ID())
	p.X86Agent.SendTune(IXPIsland, d.ID(), +2)
	p.Sim.RunUntil(2 * sim.Millisecond)
	if got := p.IXP.FlowThreads(d.ID()); got != before+2 {
		t.Fatalf("flow threads = %d, want %d", got, before+2)
	}
}

func TestCoordinationLatencyHonored(t *testing.T) {
	p := New(Config{CoordLatency: 5 * sim.Millisecond})
	d := p.AddGuest("vm", 256)
	p.IXPAgent.SendTune(X86Island, d.ID(), +64)
	p.Sim.RunUntil(4 * sim.Millisecond)
	if d.Weight() != 256 {
		t.Fatal("tune applied before mailbox latency elapsed")
	}
	p.Sim.RunUntil(6 * sim.Millisecond)
	if d.Weight() != 320 {
		t.Fatalf("weight = %d after latency, want 320", d.Weight())
	}
}

func TestTuneRateLimitOption(t *testing.T) {
	p := New(Config{TuneRateLimit: 10 * sim.Millisecond})
	d := p.AddGuest("vm", 256)
	p.IXPAgent.SendTune(X86Island, d.ID(), +64)
	p.IXPAgent.SendTune(X86Island, d.ID(), +64) // dropped
	p.Sim.RunUntil(sim.Millisecond)
	if got := p.IXPAgent.Stats().RateLimitDropped; got != 1 {
		t.Fatalf("RateLimitDropped = %d", got)
	}
	if d.Weight() != 320 {
		t.Fatalf("weight = %d, want a single tune applied", d.Weight())
	}
}

func TestTotalGuestUtilization(t *testing.T) {
	p := New(Config{})
	a := p.AddGuest("a", 256)
	var next func()
	next = func() { a.SubmitFunc(5*sim.Millisecond, "hog", next) }
	next()
	p.Sim.RunUntil(2 * sim.Second)
	u := p.TotalGuestUtilization(0)
	if u < 90 {
		t.Fatalf("TotalGuestUtilization = %.1f, want ~100", u)
	}
}

func TestWeightClampsRespectedByTunes(t *testing.T) {
	p := New(Config{MinGuestWeight: 100, MaxGuestWeight: 400})
	d := p.AddGuest("vm", 256)
	p.IXPAgent.SendTune(X86Island, d.ID(), +10000)
	p.Sim.RunUntil(sim.Millisecond)
	if d.Weight() != 400 {
		t.Fatalf("weight = %d, want clamp 400", d.Weight())
	}
	p.IXPAgent.SendTune(X86Island, d.ID(), -10000)
	p.Sim.RunUntil(2 * sim.Millisecond)
	if d.Weight() != 100 {
		t.Fatalf("weight = %d, want clamp 100", d.Weight())
	}
}

func TestUnknownEntityTuneIsDropped(t *testing.T) {
	p := New(Config{})
	p.IXPAgent.SendTune(X86Island, 42, +64)
	p.Sim.RunUntil(sim.Millisecond)
	if got := p.Controller.Unroutable(); got != 1 {
		t.Fatalf("Unroutable = %d", got)
	}
}

func TestPlatformTracing(t *testing.T) {
	var buf bytes.Buffer
	rec, err := flight.NewRecorder(&buf, 1, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := New(Config{Flight: rec})
	d := p.AddGuest("vm", 256)
	d.SubmitFunc(5*sim.Millisecond, "work", nil)
	p.IXPAgent.SendTune(X86Island, d.ID(), +64)
	p.Sim.RunUntil(10 * sim.Millisecond)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := flight.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var dump strings.Builder
	for _, e := range log.Events {
		dump.WriteString(e.String() + "\n")
	}
	for _, want := range []string{"[send] tune", "[apply] tune", "[weight]"} {
		if !strings.Contains(dump.String(), want) {
			t.Fatalf("flight log missing %q:\n%s", want, dump.String())
		}
	}
}

// TestNewRejectsContradictoryConfig: settings that are invalid or
// contradict each other panic with a diagnosable message instead of one
// being silently ignored.
func TestNewRejectsContradictoryConfig(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"breaker without reliable", Config{Breaker: &overload.BreakerConfig{}}, "Breaker"},
		{"negative cap", Config{Energy: &EnergyConfig{Governor: energy.ModeCoordinated, CapWatts: -1}}, "CapWatts"},
		{"cap without coordinated governor", Config{Energy: &EnergyConfig{Governor: energy.ModeOndemand, CapWatts: 120}}, "CapWatts"},
		{"negative min guest weight", Config{MinGuestWeight: -1}, "MinGuestWeight"},
		{"min guest weight above max", Config{MinGuestWeight: 512, MaxGuestWeight: 256}, "MinGuestWeight"},
		{"min guest weight above default max", Config{MinGuestWeight: 2048}, "MinGuestWeight"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "platform: invalid config: ") || !strings.Contains(msg, tc.want) {
					t.Errorf("New panicked with %q, want an invalid-config message naming %s", msg, tc.want)
				}
			}()
			New(tc.cfg)
		})
	}
}

// TestCapRestoresWhenLoadDrops: under a platform cap the coordinated
// governor slows the saturated x86 island, and once the CPU hogs stop it
// restores the island to its top point.
func TestCapRestoresWhenLoadDrops(t *testing.T) {
	p := New(Config{Energy: &EnergyConfig{Governor: energy.ModeCoordinated, CapWatts: 120}})
	loaded := true
	for i := 0; i < 2; i++ {
		g := p.AddGuest("hog", 256)
		var next func()
		next = func() {
			if loaded {
				g.SubmitFunc(5*sim.Millisecond, "hog", next)
			}
		}
		next()
	}
	p.Sim.Ticker(p.EnergyCfg.Period, func() { p.EnergyGov.Step(0, 0) })

	p.Sim.RunUntil(10 * sim.Second)
	if p.X86DVFS.AtTop() {
		t.Fatal("saturated platform over its cap kept x86 at its top point")
	}
	if w := p.EnergyMeter.PlatformWatts(); w > 120 {
		t.Fatalf("platform draws %.1fW under a 120W cap", w)
	}
	loaded = false
	p.Sim.RunUntil(20 * sim.Second)
	if !p.X86DVFS.AtTop() {
		t.Fatalf("x86 at %d MHz after the load stopped, want its top point", p.X86DVFS.Current().Level)
	}
}
