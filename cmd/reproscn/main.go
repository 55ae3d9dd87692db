// Command reproscn generates, inspects, runs, and diffs declarative
// workload scenarios and their .wtrace files (see docs/scenarios.md).
//
// Usage:
//
//	reproscn generate -kind flash-crowd -o x.wtrace [-duration 30s]
//	                  [-rate 40] [-seed N]
//	reproscn inspect [-n N] x.wtrace
//	reproscn run [-coordinated] [-seed N] scenario.json
//	reproscn diff a.wtrace b.wtrace
//
// generate synthesizes a deterministic trace from one of the generator
// families (flash-crowd, diurnal, heavy-tail, ml-serving, kv-tier) and
// writes it. inspect prints a trace's header, span, and per-class
// counts (-n additionally dumps the first N requests). run parses a
// JSON scenario spec strictly, compiles it, runs it, and prints the
// run's headline metrics and per-request-type latencies. diff compares two traces request-by-request,
// exiting 1 if they differ.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "generate":
		generate(os.Args[2:])
	case "inspect":
		inspect(os.Args[2:])
	case "run":
		run(os.Args[2:])
	case "diff":
		diff(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: reproscn generate|inspect|run|diff [flags] [files]")
	os.Exit(2)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "reproscn:", err)
	os.Exit(1)
}

func generate(args []string) {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	kind := fs.String("kind", "flash-crowd", "generator family: flash-crowd, diurnal, heavy-tail, ml-serving, kv-tier")
	out := fs.String("o", "", "output .wtrace file (default <kind>.wtrace)")
	duration := fs.Duration("duration", 30*time.Second, "trace span")
	rate := fs.Float64("rate", 0, "mean arrival rate, requests/second (0 = family default)")
	seed := fs.Int64("seed", 1, "generator seed")
	fs.Parse(args)

	tr, err := scenario.Generate(scenario.GenSpec{
		Kind:     scenario.Kind(*kind),
		Duration: sim.FromDuration(*duration),
		Rate:     *rate,
		Seed:     *seed,
	})
	if err != nil {
		fail(err)
	}
	path := *out
	if path == "" {
		path = *kind + ".wtrace"
	}
	if err := tr.WriteFile(path); err != nil {
		fail(err)
	}
	info := mustRead(path).Info()
	fmt.Printf("generated %s: %d requests, %d sessions in %d bytes\n",
		path, info.Reqs, info.Sessions, info.Bytes)
}

func inspect(args []string) {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	dump := fs.Int("n", 0, "also dump the first N requests")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	tr := mustRead(fs.Arg(0))
	info := tr.Info()
	fmt.Printf("%s: format v%d, seed=%d\n", fs.Arg(0), info.Version, info.Seed)
	fmt.Printf("  %d requests, %d sessions in %d bytes (%.2f bytes/req), t=%.6fs..%.6fs\n",
		info.Reqs, info.Sessions, info.Bytes, info.BytesPerReq,
		info.First.Seconds(), info.Last.Seconds())
	if len(info.Meta) > 0 {
		fmt.Printf("  meta: %s\n", info.Meta)
	}
	for _, c := range info.Classes {
		fmt.Printf("  %-24s %8d\n", c.Class, c.Count)
	}
	for i, r := range tr.Reqs {
		if i >= *dump {
			break
		}
		fmt.Printf("  %.6fs %s session=%d size=%d\n", r.T.Seconds(), r.Class, r.Session, r.Size)
	}
}

func run(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	coordinated := fs.Bool("coordinated", false, "force the coordinated plane on")
	seed := fs.Int64("seed", 0, "override the scenario seed")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fail(err)
	}
	sc, err := repro.ParseScenario(data)
	if err != nil {
		fail(err)
	}
	if *coordinated {
		sc.Coordinated = true
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	r, err := repro.RunScenario(sc)
	if err != nil {
		fail(err)
	}
	plane := "base"
	if sc.Coordinated {
		plane = "coordinated"
	}
	fmt.Printf("%s (%s): %.1f req/s, mean %.1f ms, %d sessions\n",
		sc.Name, plane, r.Throughput, r.MeanOverTypes(), r.SessionsCompleted)
	ov := r.Overload
	if shed := ov.QueueShed + ov.Expired + ov.IXPShed; shed > 0 || ov.Abandoned > 0 {
		fmt.Printf("  overload: shed=%d abandoned=%d served-p95=%.1fms\n",
			shed, ov.Abandoned, ov.ServedP95Ms)
	}
	if rb := r.Robustness; rb.Retransmits > 0 || rb.FaultDrops > 0 {
		fmt.Printf("  faults: dropped=%d retransmits=%d degradations=%d\n",
			rb.FaultDrops, rb.Retransmits, rb.Degradations)
	}
	fmt.Printf("\n%-26s %6s %9s %9s %9s %9s\n", "request type", "n", "min(ms)", "avg(ms)", "max(ms)", "stddev")
	for _, t := range r.PerType {
		if t.Count == 0 {
			continue
		}
		fmt.Printf("%-26s %6d %9.0f %9.0f %9.0f %9.0f\n", t.Name, t.Count, t.MinMs, t.AvgMs, t.MaxMs, t.StdDevMs)
	}
}

func diff(args []string) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 2 {
		usage()
	}
	a, b := mustRead(fs.Arg(0)), mustRead(fs.Arg(1))
	if a.Seed != b.Seed {
		fmt.Printf("seeds differ: %d vs %d\n", a.Seed, b.Seed)
		os.Exit(1)
	}
	n := len(a.Reqs)
	if len(b.Reqs) < n {
		n = len(b.Reqs)
	}
	for i := 0; i < n; i++ {
		if a.Reqs[i] != b.Reqs[i] {
			fmt.Printf("request %d differs: %+v vs %+v\n", i, a.Reqs[i], b.Reqs[i])
			os.Exit(1)
		}
	}
	if len(a.Reqs) != len(b.Reqs) {
		fmt.Printf("request counts differ: %d vs %d\n", len(a.Reqs), len(b.Reqs))
		os.Exit(1)
	}
	fmt.Printf("traces identical: %d requests\n", len(a.Reqs))
}

func mustRead(path string) *scenario.Trace {
	tr, err := scenario.ReadFile(path)
	if err != nil {
		fail(err)
	}
	return tr
}
