package mplayer

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Paper stream parameters (Figure 6): Domain-1 plays a 20 fps / 300 kbit
// stream, Domain-2 a 25 fps / 1 Mbit stream.
var (
	Dom1Stream = Stream{BitrateBn: 300e3, FrameRate: 20}
	Dom2Stream = Stream{BitrateBn: 1e6, FrameRate: 25}
)

// Polling-driver defaults: the vendor messaging driver polls the host-IXP
// message queues continuously, a steady Dom0 CPU demand the decoders
// compete with (heavy while two streams are active, lighter in the
// single-stream trigger experiments).
const (
	pollPeriod    = 2 * sim.Millisecond
	heavyPollCost = 1400 * sim.Microsecond // ~0.7 cores
	lightPollCost = 400 * sim.Microsecond  // ~0.2 cores
)

// warmup is when the experiments start counting played frames.
const warmup = 10 * sim.Second

// Burst shape of the Figure 7 / Table 3 UDP stream (no flow control): a
// 4x rate burst lasting 10s every 30s.
const (
	burstPeriod = 30 * sim.Second
	burstLen    = 10 * sim.Second
	burstFactor = 4
)

// QoSConfig parameterizes the Figure 6 experiment.
type QoSConfig struct {
	Seed     int64
	Duration sim.Time // per-configuration run length (default 60s)
}

func (c *QoSConfig) applyDefaults() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Duration == 0 {
		c.Duration = 60 * sim.Second
	}
}

// QoSPoint is one bar pair of Figure 6.
type QoSPoint struct {
	Label          string // weight configuration, e.g. "256-256"
	Dom1Weight     int
	Dom2Weight     int
	Dom2IXPThreads int
	Dom1FPS        float64
	Dom2FPS        float64
}

// qosSetup wires the two-player testbed used by Figure 6.
func qosSetup(seed int64) (*platform.Platform, *Player, *Player, *core.StreamQoSPolicy) {
	p := platform.New(platform.Config{Seed: seed})
	d1 := p.AddGuest("Domain-1", 256)
	d2 := p.AddGuest("Domain-2", 256)
	p.Host.StartPollingDriver(pollPeriod, heavyPollCost)

	policy := core.NewStreamQoSPolicy(p.IXPAgent, platform.X86Island)
	p.IXP.AddDPI(ClassifierDPI(p.IXP.XScale(), policy.OnSession))

	pl1 := NewPlayer(p.Sim, PlayerConfig{}, d1, Dom1Stream)
	pl2 := NewPlayer(p.Sim, PlayerConfig{}, d2, Dom2Stream)
	p.Host.Register(d1.ID(), func(pkt *netsim.Packet) { pl1.OnPacket(pkt) })
	p.Host.Register(d2.ID(), func(pkt *netsim.Packet) { pl2.OnPacket(pkt) })

	NewServer(p.Sim, p.IXP, d1.ID(), Dom1Stream).Start()
	NewServer(p.Sim, p.IXP, d2.ID(), Dom2Stream).Start()
	return p, pl1, pl2, policy
}

// RunQoSExperiment reproduces Figure 6: the same two streams measured under
// three weight configurations. In "256-256" coordination is off; in
// "384-512" the stream-property policy's session tunes apply (the IXP
// detected both streams' rates at session setup); in "384-640" Domain-2's
// weight is raised further and its IXP receive queue gets more dequeue
// threads in tandem.
func RunQoSExperiment(cfg QoSConfig) []QoSPoint {
	cfg.applyDefaults()
	var out []QoSPoint

	type variant struct {
		label   string
		arrange func(p *platform.Platform, policy *core.StreamQoSPolicy)
	}
	for _, v := range []variant{
		{"256-256", func(p *platform.Platform, policy *core.StreamQoSPolicy) {
			// Baseline: discard the policy's session tunes by restoring the
			// default weights right after setup.
			p.Sim.At(sim.Second/2, func() {
				for _, d := range p.Guests() {
					if err := p.Ctl.SetWeight(d.ID(), 256); err != nil {
						panic(fmt.Sprintf("mplayer: resetting weight for %s: %v", d.Name(), err))
					}
				}
			})
		}},
		{"384-512", func(p *platform.Platform, policy *core.StreamQoSPolicy) {
			// The policy's own tunes produce exactly these weights.
		}},
		{"384-640", func(p *platform.Platform, policy *core.StreamQoSPolicy) {
			// Manual escalation per the paper: more weight and more IXP
			// dequeue threads for the higher-frame-rate Domain-2.
			p.Sim.At(sim.Second, func() {
				d2, err := p.GuestByName("Domain-2")
				if err != nil {
					panic(fmt.Sprintf("mplayer: looking up Domain-2: %v", err))
				}
				if err := p.Ctl.SetWeight(d2.ID(), 640); err != nil {
					panic(fmt.Sprintf("mplayer: escalating Domain-2 weight: %v", err))
				}
				if err := p.IXP.SetFlowThreads(d2.ID(), 4); err != nil {
					panic(fmt.Sprintf("mplayer: escalating Domain-2 dequeue threads: %v", err))
				}
			})
		}},
	} {
		p, pl1, pl2, policy := qosSetup(cfg.Seed)
		v.arrange(p, policy)
		p.Sim.RunUntil(cfg.Duration)
		d1, _ := p.GuestByName("Domain-1")
		d2, _ := p.GuestByName("Domain-2")
		out = append(out, QoSPoint{
			Label:          v.label,
			Dom1Weight:     d1.Weight(),
			Dom2Weight:     d2.Weight(),
			Dom2IXPThreads: p.IXP.FlowThreads(d2.ID()),
			Dom1FPS:        pl1.FPS(warmup, p.Sim.Now()),
			Dom2FPS:        pl2.FPS(warmup, p.Sim.Now()),
		})
	}
	return out
}

// TriggerConfig parameterizes the Figure 7 / Table 3 experiments.
type TriggerConfig struct {
	Seed      int64
	Duration  sim.Time // default 180s (the paper's x-axis)
	Threshold int      // IXP buffer trigger threshold (default 128 KB)
}

func (c *TriggerConfig) applyDefaults() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Duration == 0 {
		c.Duration = 180 * sim.Second
	}
	if c.Threshold == 0 {
		c.Threshold = core.DefaultWatermark
	}
}

// TriggerResult carries Figure 7's series and Table 3's rows.
type TriggerResult struct {
	Coordinated bool
	Dom1FPS     float64
	Dom2FPS     float64 // the disk-playback victim (Table 3)

	CPUUtil   *stats.TimeSeries // Dom-1 CPU utilization, percent (Figure 7 left axis)
	BufferIn  *stats.TimeSeries // IXP buffer occupancy, bytes (Figure 7 right axis)
	Triggers  uint64            // trigger notifications sent
	Dom1Drops uint64            // packets lost at the player's socket buffer
}

// RunTriggerExperiment reproduces Figure 7 (and, with Interference, Table
// 3): a bursty UDP stream fills the per-VM packet queue in IXP DRAM; with
// coordination, crossing the byte threshold sends an immediate Trigger that
// boosts the dequeuing VM's runqueue position.
func RunTriggerExperiment(cfg TriggerConfig, coordinated bool) *TriggerResult {
	cfg.applyDefaults()
	p := platform.New(platform.Config{Seed: cfg.Seed})
	d1 := p.AddGuest("Domain-1", 256)
	// Domain-2 is the Table 3 victim, present throughout (the paper's
	// Figure 7 and Table 3 report the same Dom-1 numbers, so the runs share
	// a setup): an MPlayer VM playing a clip from its own local disk at the
	// fastest possible rate, using no IXP resources at all.
	d2 := p.AddLocalGuest("Domain-2", 256)
	pl2 := NewPlayer(p.Sim, PlayerConfig{DiskPlayback: true, DecodeCost: 11 * sim.Millisecond}, d2, Stream{BitrateBn: 500e3, FrameRate: 25})
	p.Host.StartPollingDriver(pollPeriod, lightPollCost)
	p.Host.SetRingCapacity(128)

	stream := Dom2Stream // 1 Mbit / 25 fps, the demanding stream
	pl1 := NewPlayer(p.Sim, PlayerConfig{SocketBuffer: 32 << 10}, d1, stream)
	p.Host.RegisterBounded(d1.ID(), pl1.OnPacketBackpressure)
	p.IXP.AddDPI(ClassifierDPI(p.IXP.XScale(), nil))

	var policy *core.BufferWatermarkPolicy
	if coordinated {
		// Trigger translation: runqueue boost plus a transient weight surge
		// held for the duration of the overload episode.
		p.X86Act.EnableTriggerSurge(p.Sim, 1.8, 150*sim.Millisecond)
		policy = core.NewBufferWatermarkPolicy(p.IXPAgent, platform.X86Island, cfg.Threshold)
		if err := policy.Attach(p.IXP, d1.ID()); err != nil {
			panic(fmt.Sprintf("mplayer: arming buffer watermark: %v", err))
		}
		// Level-triggered re-arm: while the buffer stays above threshold,
		// the XScale monitor keeps re-triggering so the boost persists for
		// the duration of the overload (each spike in Figure 7).
		p.IXP.XScale().MonitorBuffers(100*sim.Millisecond, func(vm, bytes int) {
			if vm == d1.ID() && bytes >= cfg.Threshold {
				p.IXPAgent.SendTrigger(platform.X86Island, vm)
			}
		})
	}

	srv := NewServer(p.Sim, p.IXP, d1.ID(), stream)
	srv.Start()
	// Arm the burst schedule.
	var schedule func()
	schedule = func() {
		srv.SetBurst(true, burstFactor)
		p.Sim.After(burstLen, func() { srv.SetBurst(false, 1) })
		p.Sim.After(burstPeriod, schedule)
	}
	p.Sim.After(burstPeriod-burstLen, schedule)

	// Figure 7 series: Dom-1 CPU utilization and IXP buffer occupancy.
	util := stats.NewTimeSeries("dom1-cpu")
	buf := stats.NewTimeSeries("ixp-buffer-in")
	lastBusy := sim.Time(0)
	lastT := sim.Time(0)
	p.Sim.Ticker(sim.Second, func() {
		now := p.Sim.Now()
		p.HV.TotalUtilization(0, d1)
		busy := d1.Meter().Busy()
		if now > lastT {
			util.Add(now, float64(busy-lastBusy)/float64(now-lastT)*100)
		}
		lastBusy, lastT = busy, now
		buf.Add(now, float64(p.IXP.Flow(d1.ID()).Bytes()))
	})

	p.Sim.RunUntil(cfg.Duration)
	res := &TriggerResult{
		Coordinated: coordinated,
		Dom1FPS:     pl1.FPS(warmup, p.Sim.Now()),
		CPUUtil:     util,
		BufferIn:    buf,
		Dom1Drops:   pl1.Dropped(),
	}
	if coordinated {
		res.Triggers = p.IXPAgent.Stats().TriggersSent
	}
	res.Dom2FPS = pl2.FPS(warmup, p.Sim.Now())
	return res
}

// InterferenceResult is Table 3: the effect of Dom-1's triggers on a VM
// that uses no IXP resources.
type InterferenceResult struct {
	Dom1Base, Dom1Coord    float64
	Dom2Base, Dom2Coord    float64
	Dom1Change, Dom2Change float64 // percent
}

// RunInterferenceExperiment reproduces Table 3.
func RunInterferenceExperiment(cfg TriggerConfig) *InterferenceResult {
	base := RunTriggerExperiment(cfg, false)
	coord := RunTriggerExperiment(cfg, true)
	res := &InterferenceResult{
		Dom1Base:  base.Dom1FPS,
		Dom1Coord: coord.Dom1FPS,
		Dom2Base:  base.Dom2FPS,
		Dom2Coord: coord.Dom2FPS,
	}
	if base.Dom1FPS > 0 {
		res.Dom1Change = (coord.Dom1FPS - base.Dom1FPS) / base.Dom1FPS * 100
	}
	if base.Dom2FPS > 0 {
		res.Dom2Change = (coord.Dom2FPS - base.Dom2FPS) / base.Dom2FPS * 100
	}
	return res
}
