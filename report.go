package repro

import (
	"fmt"
	"strings"
)

// Paper reference values, transcribed from the evaluation section. The
// harness prints them beside the measured numbers so paper-vs-measured is
// visible in every run (absolute matching is not expected — the substrate
// is a simulator, the shape is what must hold; see EXPERIMENTS.md).

// PaperTable1 holds the average response times (ms) of Table 1:
// base and coord-ixp-dom0.
var PaperTable1 = map[string][2]float64{
	"Register":                 {1447, 1015},
	"Browse":                   {922, 461},
	"BrowseCategories":         {1896, 1242},
	"SearchItemsInCategory":    {1085, 788},
	"BrowseRegions":            {1491, 1490},
	"BrowseCategoriesInRegion": {1068, 927},
	"SearchItemsInRegion":      {590, 530},
	"ViewItem":                 {2147, 1944},
	"BuyNow":                   {551, 292},
	"PutBidAuth":               {1089, 867},
	"PutBid":                   {1528, 538},
	"StoreBid":                 {3366, 1421},
	"PutComment":               {4186, 721},
	"Sell":                     {720, 490},
	"SellItemForm":             {351, 188},
	"AboutMe":                  {1154, 546},
}

// PaperTable2 holds Table 2 (base, coord).
var PaperTable2 = struct {
	Throughput [2]float64
	Sessions   [2]float64
	AvgSession [2]float64
	Efficiency [2]float64
}{
	Throughput: [2]float64{68, 95},
	Sessions:   [2]float64{6, 11},
	AvgSession: [2]float64{103, 73},
	Efficiency: [2]float64{51.28, 58.20},
}

// PaperTable3 holds Table 3 (baseline fps, coordinated fps, % change).
var PaperTable3 = struct {
	Dom1 [3]float64
	Dom2 [3]float64
}{
	Dom1: [3]float64{24.0, 26.6, +9.77},
	Dom2: [3]float64{80.0, 75.0, -6.25},
}

// PaperFig6 holds the Figure 6 targets: frame-rate requirements per domain
// and the reported post-coordination rates.
var PaperFig6 = struct {
	Dom1Target, Dom2Target float64
	Dom1Coord, Dom2Coord   float64
}{Dom1Target: 20, Dom2Target: 25, Dom1Coord: 22, Dom2Coord: 25.7}

// FormatFig2 renders Figure 2: min–max response-time variation per request
// type without coordination.
func FormatFig2(base *RubisRun) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: RUBiS min-max response-time variation (no coordination)\n")
	fmt.Fprintf(&b, "%-26s %6s %9s %9s %9s %9s %9s %9s\n",
		"request type", "n", "min(ms)", "avg(ms)", "p95(ms)", "p99(ms)", "max(ms)", "stddev")
	for _, t := range base.PerType {
		if t.Count == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-26s %6d %9.0f %9.0f %9.0f %9.0f %9.0f %9.0f\n",
			t.Name, t.Count, t.MinMs, t.AvgMs, t.P95Ms, t.P99Ms, t.MaxMs, t.StdDevMs)
	}
	return b.String()
}

// FormatFig4 renders Figure 4: min–max response times, base vs coordinated,
// with the stddev reduction the paper highlights.
func FormatFig4(base, coord *RubisRun) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: RUBiS min-max response times, base vs coord-ixp-dom0\n")
	fmt.Fprintf(&b, "%-26s | %8s %8s %8s | %8s %8s %8s | %s\n",
		"request type", "b.min", "b.max", "b.sd", "c.min", "c.max", "c.sd", "sd change")
	for i, t := range base.PerType {
		c := coord.PerType[i]
		if t.Count == 0 || c.Count == 0 {
			continue
		}
		change := "-"
		if t.StdDevMs > 0 {
			change = fmt.Sprintf("%+.0f%%", (c.StdDevMs-t.StdDevMs)/t.StdDevMs*100)
		}
		fmt.Fprintf(&b, "%-26s | %8.0f %8.0f %8.0f | %8.0f %8.0f %8.0f | %s\n",
			t.Name, t.MinMs, t.MaxMs, t.StdDevMs, c.MinMs, c.MaxMs, c.StdDevMs, change)
	}
	return b.String()
}

// FormatTable1 renders Table 1 with the paper's columns alongside.
func FormatTable1(base, coord *RubisRun) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: RUBiS average request response times (ms)\n")
	fmt.Fprintf(&b, "%-26s | %10s %10s | %10s %10s | %8s (paper %s)\n",
		"request type", "base", "coord", "paper.base", "paper.coord", "change", "change")
	for i, t := range base.PerType {
		c := coord.PerType[i]
		ref := PaperTable1[t.Name]
		change, paperChange := "-", "-"
		if t.AvgMs > 0 {
			change = fmt.Sprintf("%+.0f%%", (c.AvgMs-t.AvgMs)/t.AvgMs*100)
		}
		if ref[0] > 0 {
			paperChange = fmt.Sprintf("%+.0f%%", (ref[1]-ref[0])/ref[0]*100)
		}
		fmt.Fprintf(&b, "%-26s | %10.0f %10.0f | %10.0f %10.0f | %8s (paper %s)\n",
			t.Name, t.AvgMs, c.AvgMs, ref[0], ref[1], change, paperChange)
	}
	return b.String()
}

// FormatTable2 renders Table 2 with the paper's values alongside.
func FormatTable2(base, coord *RubisRun) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: RUBiS throughput results\n")
	fmt.Fprintf(&b, "%-22s | %10s %10s | %10s %10s\n", "metric", "base", "coord", "paper.base", "paper.coord")
	row := func(name string, bv, cv float64, ref [2]float64) {
		fmt.Fprintf(&b, "%-22s | %10.2f %10.2f | %10.2f %10.2f\n", name, bv, cv, ref[0], ref[1])
	}
	row("throughput (req/s)", base.Throughput, coord.Throughput, PaperTable2.Throughput)
	row("sessions completed", float64(base.SessionsCompleted), float64(coord.SessionsCompleted), PaperTable2.Sessions)
	row("avg session time (s)", base.AvgSessionSec, coord.AvgSessionSec, PaperTable2.AvgSession)
	row("platform efficiency", base.Efficiency, coord.Efficiency, PaperTable2.Efficiency)
	return b.String()
}

// FormatFig5 renders Figure 5: per-VM CPU utilization.
func FormatFig5(base, coord *RubisRun) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: RUBiS CPU utilization (percent of one CPU)\n")
	fmt.Fprintf(&b, "%-12s | %10s %10s\n", "domain", "no-coord", "coord")
	fmt.Fprintf(&b, "%-12s | %10.1f %10.1f\n", "Web-Server", base.WebUtil, coord.WebUtil)
	fmt.Fprintf(&b, "%-12s | %10.1f %10.1f\n", "App-Server", base.AppUtil, coord.AppUtil)
	fmt.Fprintf(&b, "%-12s | %10.1f %10.1f\n", "DB-Server", base.DBUtil, coord.DBUtil)
	fmt.Fprintf(&b, "%-12s | %10.1f %10.1f\n", "total", base.TotalUtil, coord.TotalUtil)
	return b.String()
}

// FormatFig6 renders Figure 6.
func FormatFig6(rows []MplayerQoSRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: MPlayer video-stream quality of service (frames/s)\n")
	fmt.Fprintf(&b, "(paper: with coordination Dom1=%.0f, Dom2=%.1f; targets %g and %g)\n",
		PaperFig6.Dom1Coord, PaperFig6.Dom2Coord, PaperFig6.Dom1Target, PaperFig6.Dom2Target)
	fmt.Fprintf(&b, "%-10s %10s %10s %8s | %10s %10s\n", "weights", "w(dom1)", "w(dom2)", "threads", "dom1 fps", "dom2 fps")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %10d %10d %8d | %10.1f %10.1f\n",
			r.Label, r.Dom1Weight, r.Dom2Weight, r.Dom2IXPThreads, r.Dom1FPS, r.Dom2FPS)
	}
	return b.String()
}

// FormatFig7 renders Figure 7's summary plus compact series views.
func FormatFig7(base, coord *TriggerRun) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: tuning credit adjustments using IXP buffer monitoring\n")
	fmt.Fprintf(&b, "baseline fps: %.1f; coordinated fps: %.1f (paper: 24.0 -> 26.6); triggers fired: %d\n",
		base.Dom1FPS, coord.Dom1FPS, coord.Triggers)
	spark := func(pts []SeriesPoint, width int) string {
		levels := []byte(" .:-=+*#%@")
		max := 0.0
		for _, p := range pts {
			if p.Value > max {
				max = p.Value
			}
		}
		if max <= 0 || len(pts) == 0 {
			return ""
		}
		out := make([]byte, width)
		for i := range out {
			p := pts[i*len(pts)/width]
			li := int(p.Value / max * float64(len(levels)-1))
			if li >= len(levels) {
				li = len(levels) - 1
			}
			out[i] = levels[li]
		}
		return string(out)
	}
	fmt.Fprintf(&b, "coord cpu-util  |%s|\n", spark(coord.CPUUtil, 60))
	fmt.Fprintf(&b, "coord ixp-buffer|%s|\n", spark(coord.BufferIn, 60))
	fmt.Fprintf(&b, "base  cpu-util  |%s|\n", spark(base.CPUUtil, 60))
	fmt.Fprintf(&b, "base  ixp-buffer|%s|\n", spark(base.BufferIn, 60))
	return b.String()
}

// FormatTable3 renders Table 3 with the paper's values alongside.
func FormatTable3(r *InterferenceRun) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: MPlayer trigger interference\n")
	fmt.Fprintf(&b, "%-10s | %10s %10s %9s | %10s %10s %9s\n",
		"domain", "base fps", "coord fps", "change", "paper.base", "paper.coord", "paper")
	fmt.Fprintf(&b, "%-10s | %10.1f %10.1f %+8.2f%% | %10.1f %10.1f %+8.2f%%\n",
		"Domain-1", r.Dom1BaseFPS, r.Dom1CoordFPS, r.Dom1ChangePct,
		PaperTable3.Dom1[0], PaperTable3.Dom1[1], PaperTable3.Dom1[2])
	fmt.Fprintf(&b, "%-10s | %10.1f %10.1f %+8.2f%% | %10.1f %10.1f %+8.2f%%\n",
		"Domain-2", r.Dom2BaseFPS, r.Dom2CoordFPS, r.Dom2ChangePct,
		PaperTable3.Dom2[0], PaperTable3.Dom2[1], PaperTable3.Dom2[2])
	return b.String()
}

// FormatPowerCap renders the power-cap extension's outcome.
func FormatPowerCap(r *PowerCapRun) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: coordinated platform power capping\n")
	fmt.Fprintf(&b, "cap=%.0fW uncapped=%.1fW steady=%.1fW over-cap periods=%d throttle actions=%d\n",
		r.CapWatts, r.UncappedWatts, r.SteadyWatts, r.OverCapPeriods, r.ThrottleActions)
	fmt.Fprintf(&b, "final operating points: x86 %d MHz, IXP %d pools\n", r.FinalX86MHz, r.FinalIXPPools)
	return b.String()
}

// FormatScalability renders the coordination scalability sweep.
func FormatScalability(points []ScalabilityPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: coordination-mechanism scalability (star vs distributed)\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%s\n", p)
	}
	return b.String()
}
