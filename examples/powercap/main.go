// Power-cap example: the paper's second motivating use case, built from
// the same Tune mechanism as the CPU schemes. The coordinated energy
// governor reads the energy meter's per-island watts and, while the
// platform is over its budget, sends one down-rung DVFS Tune per window —
// x86 first, IXP pools once x86 is at its lowest point — until the
// platform-level budget holds. With seed 7 it prints:
//
//	uncapped platform draw: 163.6 W
//	budget: 120 W -> steady state 112.7 W after 3 throttle actions
//	final operating points: x86 1666 MHz, IXP 4 pools
package main

import (
	"fmt"

	"repro"
)

func main() {
	run := repro.RunPowerCap(repro.PowerCapConfig{Seed: 7, CapWatts: 120})

	fmt.Printf("uncapped platform draw: %.1f W\n", run.UncappedWatts)
	fmt.Printf("budget: %.0f W -> steady state %.1f W after %d throttle actions\n",
		run.CapWatts, run.SteadyWatts, run.ThrottleActions)
	fmt.Printf("final operating points: x86 %d MHz, IXP %d pools\n", run.FinalX86MHz, run.FinalIXPPools)

	fmt.Println("\nplatform power over time:")
	step := len(run.Series) / 20
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(run.Series); i += step {
		p := run.Series[i]
		bar := int(p.Value / 4)
		fmt.Printf("%5.1fs %6.1fW |", p.Seconds, p.Value)
		for j := 0; j < bar; j++ {
			fmt.Print("#")
		}
		fmt.Println()
	}
}
