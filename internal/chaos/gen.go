package chaos

import (
	"fmt"
	"math"

	"repro/internal/pcie"
	"repro/internal/sim"
)

// crashIslands are the crash-window targets; faultChannels are the named
// coordination channels partition and corruption windows may cut (the two
// mailbox directions).
var (
	crashIslands  = [...]string{"ixp", "x86"}
	faultChannels = [...]string{pcie.MailboxToHost, pcie.MailboxToDevice}
)

// GenConfig shapes the generator's sample space. Zero values take the
// defaults noted on each field.
type GenConfig struct {
	// Duration is the run length windows are placed inside (default 16s).
	Duration sim.Time
	// WindowStart is the earliest window start (default Duration/5, so
	// schedules land after a typical warmup).
	WindowStart sim.Time
	// MaxWindows bounds the timed windows per plan (default 3).
	MaxWindows int
	// MaxReplicas bounds the controller replica count when a trial arms
	// failover (default 3; must be >= 2 to ever arm it).
	MaxReplicas int
	// Loads are the load factors sampled (default {0, 2.5}; 0 keeps the
	// calibrated baseline population).
	Loads []float64
	// Kinds are the workload families sampled (default "", flash-crowd,
	// heavy-tail; "" keeps the closed-loop client).
	Kinds []string
}

// normalized returns the config with defaults applied.
func (g GenConfig) normalized() GenConfig {
	if g.Duration <= 0 {
		g.Duration = 16 * sim.Second
	}
	if g.WindowStart <= 0 {
		g.WindowStart = g.Duration / 5
	}
	if g.MaxWindows == 0 {
		g.MaxWindows = 3
	}
	if g.MaxReplicas == 0 {
		g.MaxReplicas = 3
	}
	if len(g.Loads) == 0 {
		g.Loads = []float64{0, 2.5}
	}
	if len(g.Kinds) == 0 {
		g.Kinds = []string{"", "flash-crowd", "heavy-tail"}
	}
	return g
}

// quantRate rounds a rate to 3 decimals (stable JSON, readable repros)
// keeping it inside (0, 1).
func quantRate(x float64) float64 {
	q := math.Round(x*1000) / 1000
	if q <= 0 {
		q = 0.001
	}
	if q >= 1 {
		q = 0.999
	}
	return q
}

// quantTime rounds a duration to 10ms ticks, keeping it positive.
func quantTime(t sim.Time) sim.Time {
	const tick = 10 * sim.Millisecond
	q := (t / tick) * tick
	if q <= 0 {
		q = tick
	}
	return q
}

// Generate samples the i'th trial spec from rng. Every spec passes
// Validate by construction: windows are placed sequentially on a single
// time cursor (globally disjoint intervals are disjoint per key too), and
// controller windows are only emitted when the trial arms enough
// replicas. The draw order is fixed, so a (seed, i) pair always yields
// the same spec.
func Generate(rng *sim.Rand, cfg GenConfig, i int) TrialSpec {
	cfg = cfg.normalized()
	spec := TrialSpec{
		Name: fmt.Sprintf("trial-%04d", i),
		Seed: int64(rng.Uint64()&0x7fffffff) + 1,
	}
	spec.Plan.Seed = int64(rng.Uint64()&0x7fffffff) + 1

	// Stochastic per-message processes, each armed independently.
	if rng.Bool(0.35) {
		spec.Plan.LossRate = quantRate(rng.Uniform(0.01, 0.25))
	}
	if rng.Bool(0.25) {
		spec.Plan.DupRate = quantRate(rng.Uniform(0.01, 0.15))
	}
	if rng.Bool(0.25) {
		spec.Plan.ReorderRate = quantRate(rng.Uniform(0.01, 0.15))
	}
	if rng.Bool(0.25) {
		spec.Plan.SpikeRate = quantRate(rng.Uniform(0.01, 0.2))
	}
	if rng.Bool(0.2) {
		spec.Plan.BurstRate = quantRate(rng.Uniform(0.002, 0.03))
	}
	if rng.Bool(0.35) {
		spec.Plan.CorruptRate = quantRate(rng.Uniform(0.01, 0.2))
	}
	if rng.Bool(0.2) {
		spec.Plan.JitterMax = quantTime(sim.Time(rng.Uniform(float64(100*sim.Microsecond), float64(2*sim.Millisecond))))
	}

	// Run shape.
	spec.Load = cfg.Loads[rng.Intn(len(cfg.Loads))]
	spec.Overload = spec.Load > 1
	spec.Kind = cfg.Kinds[rng.Intn(len(cfg.Kinds))]
	if cfg.MaxReplicas >= 2 && rng.Bool(0.3) {
		spec.Replicas = 2 + rng.Intn(cfg.MaxReplicas-1)
	}

	// Timed windows, placed sequentially on one cursor so every pair is
	// disjoint no matter which key it lands on.
	nWin := rng.Intn(cfg.MaxWindows + 1)
	cursor := cfg.WindowStart
	minWin := 200 * sim.Millisecond
	for w := 0; w < nWin; w++ {
		remaining := cfg.Duration - cursor
		if remaining < 2*minWin {
			break
		}
		gap := quantTime(sim.Time(rng.Float64() * 0.15 * float64(remaining)))
		dur := quantTime(minWin + sim.Time(rng.Float64()*0.25*float64(remaining)))
		start := cursor + gap
		if start+dur > cfg.Duration {
			dur = quantTime(cfg.Duration - start)
			if dur < minWin {
				break
			}
		}
		cursor = start + dur

		kinds := 3 // partition, corruption, island crash
		if spec.Replicas >= 2 {
			kinds = 5 // + controller crash, controller partition
		}
		switch rng.Intn(kinds) {
		case 0:
			spec.Plan.Partitions = append(spec.Plan.Partitions, pcie.Partition{
				Start:    start,
				Duration: dur,
				Channels: genChannels(rng),
			})
		case 1:
			spec.Plan.Corruptions = append(spec.Plan.Corruptions, pcie.CorruptWindow{
				Start:    start,
				Duration: dur,
				Rate:     quantRate(rng.Uniform(0.2, 1.0)),
				Channels: genChannels(rng),
			})
		case 2:
			spec.Plan.Crashes = append(spec.Plan.Crashes, pcie.CrashWindow{
				Island:   crashIslands[rng.Intn(len(crashIslands))],
				Start:    start,
				Duration: dur,
			})
		case 3:
			spec.Plan.ControllerCrashes = append(spec.Plan.ControllerCrashes, pcie.ReplicaWindow{
				Replica:  rng.Intn(spec.Replicas),
				Start:    start,
				Duration: dur,
			})
		case 4:
			spec.Plan.ControllerPartitions = append(spec.Plan.ControllerPartitions, pcie.ReplicaWindow{
				Replica:  rng.Intn(spec.Replicas),
				Start:    start,
				Duration: dur,
			})
		}
	}
	return spec
}

// genChannels picks a partition/corruption channel set: every channel
// (nil) or one named channel.
func genChannels(rng *sim.Rand) []string {
	k := rng.Intn(len(faultChannels) + 1)
	if k == len(faultChannels) {
		return nil
	}
	return []string{faultChannels[k]}
}
