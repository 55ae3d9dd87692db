package repro_test

import (
	"fmt"
	"time"

	"repro"
)

// ExampleRunCoordScalability compares the central-controller (star) and
// distributed (direct) coordination topologies at a small scale. The
// simulation is deterministic, so the output is stable.
func ExampleRunCoordScalability() {
	points := repro.RunCoordScalability(repro.ScalabilityConfig{
		Islands:  []int{2},
		Duration: time.Second,
	})
	for _, p := range points {
		fmt.Printf("%s islands=%d mean=%.0fus\n", p.Topology, p.Islands, p.MeanLatencyUs)
	}
	// Output:
	// star islands=2 mean=351us
	// direct islands=2 mean=150us
}

// ExampleRunScenario runs a declarative trace-driven scenario: a
// flash-crowd workload generated from the spec's seed, replayed open
// loop into the platform. Runs are deterministic in (spec, seed), so
// the derived facts below are stable.
func ExampleRunScenario() {
	spec := []byte(`{
		"name": "spike",
		"seed": 1,
		"duration": 8000000000,
		"warmup": 2000000000,
		"workload": {"kind": "flash-crowd", "rate": 20}
	}`)
	sc, err := repro.ParseScenario(spec)
	if err != nil {
		fmt.Println(err)
		return
	}
	run, err := repro.RunScenario(sc)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("%s: served=%v\n", sc.Name, run.Throughput > 0)
	// Output:
	// spike: served=true
}

// ExampleCoordScheme shows the available RUBiS coordination policy
// variants.
func ExampleCoordScheme() {
	for _, s := range []repro.CoordScheme{
		repro.SchemeOutstanding, repro.SchemeLoadTrack, repro.SchemeClass,
	} {
		fmt.Println(s)
	}
	// Output:
	// outstanding
	// loadtrack
	// class
}

// ExampleRunPowerCap holds two CPU-hog guests under a 120 W platform cap:
// the coordinated energy governor steps the x86 island down one operating
// point per 500 ms window until the metered draw fits, then holds.
func ExampleRunPowerCap() {
	r := repro.RunPowerCap(repro.PowerCapConfig{Seed: 1, CapWatts: 120, Duration: 10 * time.Second})
	fmt.Printf("cap=%.0fW uncapped=%.1fW steady=%.1fW\n", r.CapWatts, r.UncappedWatts, r.SteadyWatts)
	fmt.Printf("over-cap periods=%d actions=%d\n", r.OverCapPeriods, r.ThrottleActions)
	fmt.Printf("final: x86 %d MHz, IXP %d pools\n", r.FinalX86MHz, r.FinalIXPPools)
	// Output:
	// cap=120W uncapped=163.6W steady=112.7W
	// over-cap periods=3 actions=3
	// final: x86 1666 MHz, IXP 4 pools
}
