// Quickstart: assemble the two-island prototype, register a guest VM with
// the global controller, and exercise the paper's two coordination
// mechanisms — a Tune (fine-grained weight adjustment) and a Trigger
// (immediate boost) — sent from the IXP island to the x86 island over the
// PCIe mailbox.
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro/internal/flight"
	"repro/internal/platform"
	"repro/internal/sim"
)

func main() {
	// Build the testbed: a dual-core Xen host plus an IXP2850 over PCIe,
	// with the coordination plane registered between them. The flight
	// recorder logs every coordination decision into an in-memory buffer.
	var buf bytes.Buffer
	rec, err := flight.NewRecorder(&buf, 42, nil, 0)
	if err != nil {
		log.Fatal(err)
	}
	p := platform.New(platform.Config{Seed: 42, Flight: rec})

	// Deploy a guest VM. AddGuest registers it with the global controller
	// and provisions its flow queue on the IXP, so both islands can name it.
	vm := p.AddGuest("my-vm", 256)
	fmt.Printf("deployed %s: weight=%d, IXP threads=%d\n",
		vm.Name(), vm.Weight(), p.IXP.FlowThreads(vm.ID()))

	// Keep the VM busy so scheduling effects are visible.
	var churn func()
	churn = func() { vm.SubmitFunc(5*sim.Millisecond, "work", churn) }
	churn()

	// Tune: the IXP island asks the x86 island to raise the VM's credit
	// weight by 128. The message crosses the PCIe mailbox (150us one way),
	// is routed by the controller in Dom0, and lands in the XenCtrl
	// interface.
	p.IXPAgent.SendTune(platform.X86Island, vm.ID(), +128)
	p.Sim.RunUntil(1 * sim.Millisecond)
	fmt.Printf("after Tune(+128): weight=%d\n", vm.Weight())

	// Tunes work in the other direction too: the x86 island can ask the
	// IXP to assign more dequeue threads to the VM's flow queue.
	p.X86Agent.SendTune(platform.IXPIsland, vm.ID(), +2)
	p.Sim.RunUntil(2 * sim.Millisecond)
	fmt.Printf("after reverse Tune(+2 threads): IXP threads=%d\n", p.IXP.FlowThreads(vm.ID()))

	// Trigger: an immediate, interrupt-like request — the VM is boosted to
	// the front of the runqueue as soon as the message arrives.
	p.IXPAgent.SendTrigger(platform.X86Island, vm.ID())
	p.Sim.RunUntil(3 * sim.Millisecond)
	fmt.Printf("after Trigger: vcpu priority=%v, running=%v\n",
		vm.Priority(), vm.Running())

	// Let the platform run for a simulated second and read the meters.
	p.Sim.RunUntil(1 * sim.Second)
	fmt.Printf("after 1s simulated: VM used %.0f%% CPU, coordination stats: %+v\n",
		p.TotalGuestUtilization(0), p.IXPAgent.Stats())

	// Decode the flight log: every send, actuation and weight change above.
	if err := rec.Close(); err != nil {
		log.Fatal(err)
	}
	flog, err := flight.Decode(buf.Bytes())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nflight log:")
	for _, e := range flog.Events {
		fmt.Println(e)
	}
}
