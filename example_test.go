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
