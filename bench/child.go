package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"
)

// A rep runs in a fresh child process, so every rep starts cold as a CLI
// invocation does. The parent starts the benchmark's own executable with
// childEnv set; the child prints one repResult as JSON on stdout.
const childEnv = "REPRO_BENCH_CHILD"

// Traced-child profiling settings. The CPU profile samples at 1 kHz; the
// allocation profile samples one allocation per memProfileRate bytes.
// A traced child repeats the simulation until it has spent traceMinCPU of
// CPU, so every bucket above 1% holds at least 50 samples: a kernel ticking
// at 250 Hz delivers about 280 samples per CPU second, not 1000.
const (
	cpuProfileHz   = 1000
	memProfileRate = 64 << 10
	traceMinCPU    = 18 * time.Second
)

// repResult is what one child measured.
type repResult struct {
	Workload string `json:"workload"`
	Traced   bool   `json:"traced,omitempty"`

	SetupS float64 `json:"setup_s"`
	// The rest covers the simulation alone, summed over Passes runs.
	Passes        int     `json:"passes"`
	SimS          float64 `json:"sim_s"`
	WallS         float64 `json:"wall_s"`
	CPUS          float64 `json:"cpu_s"`
	Mallocs       uint64  `json:"mallocs"`
	AllocBytes    uint64  `json:"alloc_bytes"`
	PeakLiveBytes uint64  `json:"peak_live_bytes"`
	GCCycles      uint32  `json:"gc_cycles"`

	Digest   string             `json:"digest,omitempty"`
	Failures []string           `json:"failures,omitempty"`
	Counts   map[string]float64 `json:"counts,omitempty"`

	// Traced children only: samples per owner and self bucket, and
	// allocated objects per owner bucket.
	CPUOwner   map[string]int64 `json:"cpu_owner,omitempty"`
	CPUSelf    map[string]int64 `json:"cpu_self,omitempty"`
	CPUSamples int64            `json:"cpu_samples,omitempty"`
	AllocOwner map[string]int64 `json:"alloc_owner,omitempty"`

	// rejected is set by the parent once any check of this result fails.
	rejected bool
}

// childMain runs one rep and prints its repResult.
func childMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench child", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "workload seed")
	horizon := fs.Duration("horizon", 0, "simulated length override")
	traced := fs.Bool("traced", false, "profile the run")
	setupOnly := fs.Bool("setup-only", false, "stop after set-up")
	t0 := fs.Int64("t0", 0, "parent's wall clock at spawn, Unix ns")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traced {
		runtime.MemProfileRate = memProfileRate
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}

	r, err := w.prepare(*seed, *horizon, *traced)
	if err != nil {
		return fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	res := repResult{
		Workload: w.name,
		Traced:   *traced,
		SetupS:   float64(time.Now().UnixNano()-*t0) / 1e9,
	}
	if !*setupOnly {
		if err := measure(&res, r, *traced && *horizon == 0); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
	}
	return json.NewEncoder(stdout).Encode(res)
}

// measure simulates the rep and records its host cost. A traced rep is
// profiled and, when repeat is set, simulated again until it has used
// traceMinCPU; every pass must reproduce the first pass's digest.
func measure(res *repResult, r *rep, repeat bool) error {
	var cpuProf bytes.Buffer
	if res.Traced {
		runtime.SetCPUProfileRate(cpuProfileHz)
		if err := pprof.StartCPUProfile(&cpuProf); err != nil {
			return err
		}
	}
	peak := watchPeakLive()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()

	var first *outcome
	for first == nil || repeat && cpuTime()-cpu0 < traceMinCPU {
		o, err := r.run()
		if err != nil {
			return err
		}
		res.Passes++
		if first == nil {
			first = o
		} else if o.digest != first.digest {
			first.failures = append(first.failures, fmt.Sprintf("pass %d digest %s differs from pass 1 %s", res.Passes, o.digest, first.digest))
		}
	}

	res.WallS = time.Since(start).Seconds()
	res.CPUS = (cpuTime() - cpu0).Seconds()
	runtime.ReadMemStats(&ms1)
	res.PeakLiveBytes = peak()
	res.SimS = r.simSeconds * float64(res.Passes)
	res.Mallocs = ms1.Mallocs - ms0.Mallocs
	res.AllocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	res.GCCycles = ms1.NumGC - ms0.NumGC
	if res.Traced {
		pprof.StopCPUProfile()
		if err := res.attribute(cpuProf.Bytes()); err != nil {
			return err
		}
		if first.observe != nil {
			if err := first.observe(); err != nil {
				return err
			}
		}
	}
	res.Digest, res.Failures, res.Counts = first.digest, first.failures, first.counts
	return nil
}

// attribute decodes the CPU profile and the allocation profile and sums
// both per bucket.
func (res *repResult) attribute(cpuData []byte) error {
	cpu, err := parseProfile(cpuData)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	idx := cpu.valueIndex("samples")
	if idx < 0 {
		return errors.New("cpu profile has no samples column")
	}
	a := attribute(cpu, idx)
	res.CPUOwner, res.CPUSelf, res.CPUSamples = a.owner, a.self, a.total

	// The allocation profile reports the state as of the last completed
	// GC cycle, so finish one first.
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return err
	}
	allocs, err := parseProfile(buf.Bytes())
	if err != nil {
		return fmt.Errorf("allocs profile: %w", err)
	}
	if idx = allocs.valueIndex("alloc_objects"); idx < 0 {
		return errors.New("allocs profile has no alloc_objects column")
	}
	res.AllocOwner = attribute(allocs, idx).owner
	return nil
}

// cpuTime returns the process's user plus system CPU time, every thread
// (GC workers included).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// watchPeakLive tracks the largest live heap any GC cycle marked, read by
// a finalizer sentinel that re-arms itself after every cycle. The returned
// function stops the watch and reports the peak in bytes.
func watchPeakLive() (stop func() uint64) {
	var (
		mu      sync.Mutex
		peak    uint64
		stopped bool
	)
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	type sentinel struct{ _ [64]byte }
	var arm func()
	arm = func() {
		runtime.SetFinalizer(new(sentinel), func(*sentinel) {
			metrics.Read(sample)
			mu.Lock()
			defer mu.Unlock()
			if v := sample[0].Value.Uint64(); v > peak {
				peak = v
			}
			if !stopped {
				arm()
			}
		})
	}
	arm()
	return func() uint64 {
		mu.Lock()
		defer mu.Unlock()
		stopped = true
		return peak
	}
}

// runChild is the child process's entry point.
func runChild() {
	if err := childMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		os.Exit(1)
	}
	os.Exit(0)
}
