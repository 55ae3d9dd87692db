package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. Bound is the share of the parent
// commit's median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, summarized over
// a run's untraced reps by summarize (setup_s over every child). setup_s
// carries the largest bound, 0.25; the host-timed bounds sit just under it
// because ten runs of the same code on a shared 2-vCPU host spread 8-24%,
// while allocation counts repeat within 0.25% across seeds.
var endToEnd = []metricDef{
	{"sim_s_per_wall_s", "sim-s/s", "higher", 0.24},
	{"cpu_s_per_sim_s", "s/sim-s", "lower", 0.24},
	{"allocs_per_sim_s", "1/sim-s", "lower", 0.01},
	{"alloc_mb_per_sim_s", "MB/sim-s", "lower", 0.01},
	{"setup_s", "s", "lower", 0.25},
}

// hostTimed are the end-to-end metrics read from host clocks. Contention
// from other tenants only ever slows a rep, and it comes in phases lasting
// minutes, so a run reports its fastest rep for them: over 150 consecutive
// coord-scale reps on a shared 2-vCPU host, runs of 12 reps spread 23%
// by their medians and 13% by their fastest rep.
var hostTimed = map[string]bool{"sim_s_per_wall_s": true, "cpu_s_per_sim_s": true}

// summarize reduces a run's per-rep values of m to the reported value: the
// best rep for host-timed metrics, the median otherwise.
func summarize(m metricDef, xs []float64) float64 {
	if !hostTimed[m.Name] || len(xs) == 0 {
		return median(xs)
	}
	best := xs[0]
	for _, x := range xs[1:] {
		if m.Better == "higher" && x > best || m.Better == "lower" && x < best {
			best = x
		}
	}
	return best
}

// repValue computes an end-to-end metric from one untraced rep.
func repValue(name string, r *repResult) float64 {
	switch name {
	case "sim_s_per_wall_s":
		return r.SimS / r.WallS
	case "cpu_s_per_sim_s":
		return r.CPUS / r.SimS
	case "allocs_per_sim_s":
		return float64(r.Mallocs) / r.SimS
	case "alloc_mb_per_sim_s":
		return float64(r.AllocBytes) / 1e6 / r.SimS
	case "setup_s":
		return r.SetupS
	case "mem.peak_live_mb":
		return float64(r.PeakLiveBytes) / 1e6
	case "mem.gc_cycles_per_sim_s":
		return float64(r.GCCycles) / r.SimS
	}
	panic("bench: no per-rep value for metric " + name)
}

// countMetrics are the exact counts the workloads' results expose, in
// report order, with their units and directions.
var countMetrics = []metricDef{
	{"rubis.responses", "count", "higher", 0},
	{"rubis.sessions", "count", "higher", 0},
	{"core.tunes_sent", "count", "lower", 0},
	{"core.tunes_applied", "count", "lower", 0},
	{"core.data_sent", "count", "lower", 0},
	{"core.retransmits", "count", "lower", 0},
	{"core.retransmit_ratio", "ratio", "lower", 0},
	{"core.acks_sent", "count", "lower", 0},
	{"core.expired", "count", "lower", 0},
	{"core.heartbeats", "count", "lower", 0},
	{"core.lease_expiries", "count", "lower", 0},
	{"pcie.fault_drops", "count", "lower", 0},
	{"pcie.duplicated", "count", "lower", 0},
	{"pcie.reordered", "count", "lower", 0},
	{"overload.offered", "count", "higher", 0},
	{"overload.served_ratio", "ratio", "higher", 0},
	{"overload.shed", "count", "lower", 0},
	{"overload.expired", "count", "lower", 0},
	{"overload.ixp_shed", "count", "lower", 0},
	{"overload.abandoned", "count", "lower", 0},
	{"overload.triggers", "count", "lower", 0},
	{"flight.events.send", "count", "lower", 0},
	{"flight.events.apply", "count", "lower", 0},
	{"flight.events.weight", "count", "lower", 0},
	{"flight.events.boost", "count", "lower", 0},
	{"flight.events.ixp", "count", "lower", 0},
	{"flight.events.admit", "count", "lower", 0},
	{"flight.events.breaker", "count", "lower", 0},
	{"flight.events.lease", "count", "lower", 0},
	{"flight.events.failover", "count", "lower", 0},
	{"flight.events.energy", "count", "lower", 0},
	{"flight.bytes_per_event", "B", "lower", 0},
	{"scale.routed_per_s", "1/s", "higher", 0},
	{"flight.replay_s", "s", "lower", 0},
	{"sweep.trial_wall_s.p50", "s", "lower", 0},
	{"sweep.trial_wall_s.max", "s", "lower", 0},
	{"sweep.busy_frac", "ratio", "higher", 0},
}

// perLayer lists every per-layer metric in report order: CPU and
// allocations per owner bucket, CPU per self bucket, the counts, and the
// memory and tracing diagnostics.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, b := range ownerBuckets {
		defs = append(defs, metricDef{"cpu.owner." + b, "ms/sim-s", "lower", 0})
	}
	for _, b := range selfBuckets {
		defs = append(defs, metricDef{"cpu.self." + b, "ms/sim-s", "lower", 0})
	}
	defs = append(defs, metricDef{"cpu.samples", "count", "higher", 0})
	for _, b := range ownerBuckets {
		defs = append(defs, metricDef{"alloc.owner." + b, "1/sim-s", "lower", 0})
	}
	defs = append(defs, countMetrics...)
	return append(defs,
		metricDef{"mem.peak_live_mb", "MB", "lower", 0},
		metricDef{"mem.gc_cycles_per_sim_s", "1/sim-s", "lower", 0},
		metricDef{"trace.overhead_frac", "ratio", "lower", 0},
	)
}()

// median returns the median of xs (the mean of the middle pair for an even
// count), or NaN for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread returns the interquartile range of xs as a share of its median,
// with quartiles by the exclusive method of Python's statistics.quantiles.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		j := int(pos)
		switch {
		case j < 1:
			return s[0]
		case j >= len(s):
			return s[len(s)-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return math.Abs(q(0.75)-q(0.25)) / math.Abs(m)
}
