package repro

import (
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// Scalability transport costs: every hop takes the PCIe mailbox's 150us,
// and the central controller spends 50us routing each message.
const (
	scaleHop     = 150 * sim.Microsecond
	scaleHubCost = 50 * sim.Microsecond
)

// ScalabilityConfig parameterizes the coordination-mechanism scalability
// study — the paper's ongoing work (§5): how do the Tune/Trigger mechanisms
// behave as platforms grow to many islands, and when does distributing
// coordination beat the prototype's central controller?
type ScalabilityConfig struct {
	Seed          int64
	Islands       []int         // island counts to sweep (default 2..256 doubling)
	RatePerIsland float64       // coordination messages/s per island (default 200)
	Duration      time.Duration // simulated time per point (default 10s)

	// Workers is the parallel trial pool size; <= 0 uses GOMAXPROCS. Every
	// (topology, islands) point is an independent simulation, so results
	// are identical for any worker count.
	Workers int
	// Reps repeats each point with FNV-derived seed substreams (repetition
	// 0 keeps Seed, so Reps 0 or 1 reproduces historical single-run results
	// exactly). With Reps > 1 each point reports the mean across
	// repetitions plus 95% confidence intervals.
	Reps int
}

// applyDefaults fills each zero field with its default and panics on a
// negative one.
func (c *ScalabilityConfig) applyDefaults() {
	switch {
	case c.RatePerIsland < 0:
		panic(fmt.Sprintf("repro: negative RatePerIsland %g", c.RatePerIsland))
	case c.Duration < 0:
		panic(fmt.Sprintf("repro: negative Duration %v", c.Duration))
	case c.Reps < 0:
		panic(fmt.Sprintf("repro: negative Reps %d", c.Reps))
	}
	for _, n := range c.Islands {
		if n < 1 {
			panic(fmt.Sprintf("repro: Islands holds %d; each island count must be at least 1", n))
		}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if len(c.Islands) == 0 {
		c.Islands = []int{2, 4, 8, 16, 32, 64, 128, 256}
	}
	if c.RatePerIsland <= 0 {
		c.RatePerIsland = 200
	}
	if c.Duration == 0 {
		c.Duration = 10 * time.Second
	}
	if c.Reps == 0 {
		c.Reps = 1
	}
}

// ScalabilityPoint is one (topology, island count) measurement. With
// repetitions, the float metrics are means across repetitions and the CI
// fields carry 95% confidence half-widths (zero for a single repetition).
type ScalabilityPoint struct {
	Topology      string // "star" (central controller) or "direct" (distributed)
	Islands       int
	OfferedPerSec float64
	RoutedPerSec  float64
	MeanLatencyUs float64
	P99LatencyUs  float64
	MaxLatencyUs  float64

	Reps       int     `json:",omitempty"`
	MeanCI95Us float64 `json:",omitempty"` // 95% CI half-width on MeanLatencyUs
	P99CI95Us  float64 `json:",omitempty"` // 95% CI half-width on P99LatencyUs
}

// RunCoordScalability sweeps island counts for both topologies. In the
// star topology every Tune crosses two transport hops and a serializing
// central controller; in the direct (distributed) topology islands address
// each other over a single hop. The crossover — where the hub's queueing
// dominates the extra complexity of distribution — motivates the paper's
// call for distributed coordination on large many-cores.
//
// Points (and repetitions) fan out across the sweep worker pool; results
// are deterministic and identical for any Workers value.
func RunCoordScalability(cfg ScalabilityConfig) []ScalabilityPoint {
	cfg.applyDefaults()

	type pointCfg struct {
		Topology      string  `json:"topology"`
		Islands       int     `json:"islands"`
		RatePerIsland float64 `json:"rate_per_island"`
		DurationNs    int64   `json:"duration_ns"`
	}
	var points []sweep.Point
	for _, n := range cfg.Islands {
		for _, topo := range []string{"star", "direct"} {
			points = append(points, sweep.Point{
				Name: fmt.Sprintf("%s/%d", topo, n),
				Config: pointCfg{
					Topology:      topo,
					Islands:       n,
					RatePerIsland: cfg.RatePerIsland,
					DurationNs:    int64(cfg.Duration),
				},
			})
		}
	}

	res, err := sweep.Run(points, func(t sweep.Trial) (any, error) {
		pc := t.Point.Config.(pointCfg)
		trialCfg := cfg
		trialCfg.Seed = t.Seed
		return runScalabilityPoint(trialCfg, pc.Islands, pc.Topology), nil
	}, sweep.Options{Workers: cfg.Workers, Reps: cfg.Reps, Seed: cfg.Seed})
	if err != nil {
		// Points are generated above with unique names and marshalable
		// configs, and the runner never errors, so this is unreachable
		// short of an engine bug.
		panic(fmt.Sprintf("repro: scalability sweep failed: %v", err))
	}

	out := make([]ScalabilityPoint, 0, len(points))
	for pi := range points {
		reps := make([]ScalabilityPoint, cfg.Reps)
		for rep := 0; rep < cfg.Reps; rep++ {
			if err := res.Decode(pi*cfg.Reps+rep, &reps[rep]); err != nil {
				panic(fmt.Sprintf("repro: scalability sweep result: %v", err))
			}
		}
		out = append(out, aggregateScalability(reps))
	}
	return out
}

// aggregateScalability folds one point's repetitions into a single point:
// means across repetitions, with 95% confidence intervals on the latency
// metrics. A single repetition passes through unchanged.
func aggregateScalability(reps []ScalabilityPoint) ScalabilityPoint {
	if len(reps) == 1 {
		return reps[0]
	}
	agg := ScalabilityPoint{Topology: reps[0].Topology, Islands: reps[0].Islands, Reps: len(reps)}
	var offered, routed, meanLat, p99, maxLat stats.Summary
	for _, r := range reps {
		offered.Add(r.OfferedPerSec)
		routed.Add(r.RoutedPerSec)
		meanLat.Add(r.MeanLatencyUs)
		p99.Add(r.P99LatencyUs)
		maxLat.Add(r.MaxLatencyUs)
	}
	agg.OfferedPerSec = offered.Mean()
	agg.RoutedPerSec = routed.Mean()
	agg.MeanLatencyUs = meanLat.Mean()
	agg.P99LatencyUs = p99.Mean()
	agg.MaxLatencyUs = maxLat.Mean()
	agg.MeanCI95Us = meanLat.CI95()
	agg.P99CI95Us = p99.CI95()
	return agg
}

func runScalabilityPoint(cfg ScalabilityConfig, islands int, topo string) ScalabilityPoint {
	s := sim.New(cfg.Seed)
	duration := toSim(cfg.Duration)

	var lat stats.Sample
	var sent, routed uint64

	// deliver records end-to-end latency at the destination island.
	deliver := func(sentAt sim.Time) {
		routed++
		lat.Add((s.Now() - sentAt).Microseconds())
	}

	// In the star topology, a central hub serializes routing: each message
	// occupies it for scaleHubCost before the second hop begins.
	var hubBusy sim.Time
	routeViaHub := func(sentAt sim.Time) {
		start := s.Now()
		if hubBusy > start {
			start = hubBusy
		}
		hubBusy = start + scaleHubCost
		s.At(hubBusy, func() {
			s.After(scaleHop, func() { deliver(sentAt) })
		})
	}

	// Each island emits Poisson coordination traffic to random peers.
	rng := s.Rand().Fork()
	interval := sim.Time(float64(sim.Second) / cfg.RatePerIsland)
	for i := 0; i < islands; i++ {
		var emit func()
		emit = func() {
			if s.Now() >= duration {
				return
			}
			sent++
			at := s.Now()
			switch topo {
			case "star":
				s.After(scaleHop, func() { routeViaHub(at) })
			default: // direct
				s.After(scaleHop, func() { deliver(at) })
			}
			s.After(rng.ExpTime(interval), emit)
		}
		s.After(rng.ExpTime(interval), emit)
	}
	s.RunUntil(duration + 10*sim.Second) // drain in-flight messages

	secs := duration.Seconds()
	return ScalabilityPoint{
		Topology:      topo,
		Islands:       islands,
		OfferedPerSec: float64(sent) / secs,
		RoutedPerSec:  float64(routed) / secs,
		MeanLatencyUs: mean(&lat),
		P99LatencyUs:  lat.Percentile(99),
		MaxLatencyUs:  lat.Percentile(100),
	}
}

func mean(sample *stats.Sample) float64 {
	vs := sample.Values()
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// String renders the point for harness output.
func (p ScalabilityPoint) String() string {
	s := fmt.Sprintf("%-6s islands=%-3d offered=%8.0f/s routed=%8.0f/s mean=%7.1fus p99=%8.1fus max=%8.1fus",
		p.Topology, p.Islands, p.OfferedPerSec, p.RoutedPerSec, p.MeanLatencyUs, p.P99LatencyUs, p.MaxLatencyUs)
	if p.Reps > 1 {
		s += fmt.Sprintf(" (n=%d mean±%.1f p99±%.1f)", p.Reps, p.MeanCI95Us, p.P99CI95Us)
	}
	return s
}
