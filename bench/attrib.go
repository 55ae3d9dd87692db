package main

import "strings"

// This file attributes profile samples to the layer whose work they are,
// from the call stacks alone: the simulator is observed from outside.

const (
	stepFunc     = "repro/internal/sim.(*Simulator).Step"
	gcWorkerFunc = "runtime.gcBgMarkWorker"
)

// ownerBuckets are the owner attribution's buckets in report order:
// the event kernel's own dispatch, each model layer, the root facade
// (repro), GC background workers, and everything outside an event.
var ownerBuckets = []string{
	"dispatch", "ixp", "xen", "netsim", "pcie", "core", "overload",
	"energy", "flight", "rubis", "platform", "repro", "gc", "harness",
}

// selfBuckets are the buckets of the innermost-repro-frame attribution:
// every repro package a workload's stacks reach, "other" for any further
// repro package, and "none" for samples outside repro code.
var selfBuckets = []string{
	"sim", "ixp", "xen", "netsim", "pcie", "core", "overload", "energy",
	"flight", "rubis", "platform", "repro", "stats", "scenario", "sweep",
	"other", "none",
}

// funcPackage returns the import path of a symbol name such as
// "repro/internal/sim.(*Simulator).Step" or "repro.runScalabilityPoint.func1".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// layer returns the repro layer a symbol belongs to ("repro" for the root
// facade, "sim" for the kernel), or "" for code outside the repro module.
func layer(name string) string {
	pkg := funcPackage(name)
	if pkg == "repro" {
		return "repro"
	}
	rest, ok := strings.CutPrefix(pkg, "repro/internal/")
	if !ok {
		return ""
	}
	first, _, _ := strings.Cut(rest, "/")
	return first
}

// owner attributes a stack, leaf first. Under the outermost Step frame the
// owner is the layer of the first non-kernel repro frame leafward of it:
// the layer whose event is running, kernel calls included. A Step with no
// such frame is the kernel's own dispatch (heap pop, ticker re-arm).
// Outside Step, GC background workers are "gc" and the rest "harness".
func owner(stack []string) string {
	step := -1
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i] == stepFunc {
			step = i
			break
		}
	}
	if step < 0 {
		for _, fn := range stack {
			if fn == gcWorkerFunc {
				return "gc"
			}
		}
		return "harness"
	}
	for i := step - 1; i >= 0; i-- {
		if l := layer(stack[i]); l != "" && l != "sim" {
			return bucketOf(l, ownerBuckets, "repro")
		}
	}
	return "dispatch"
}

// self attributes a stack to the package of its innermost repro frame.
func self(stack []string) string {
	for _, fn := range stack {
		if l := layer(fn); l != "" {
			return bucketOf(l, selfBuckets, "other")
		}
	}
	return "none"
}

// bucketOf returns l when it is one of buckets, else fallback.
func bucketOf(l string, buckets []string, fallback string) string {
	for _, b := range buckets {
		if b == l {
			return l
		}
	}
	return fallback
}

// attribution is one profile value summed per owner and per self bucket.
type attribution struct {
	owner map[string]int64
	self  map[string]int64
	total int64
}

// attribute sums value column idx of every sample into both bucket sets.
func attribute(p *profile, idx int) attribution {
	a := attribution{owner: map[string]int64{}, self: map[string]int64{}}
	for _, s := range p.samples {
		v := s.values[idx]
		a.owner[owner(s.stack)] += v
		a.self[self(s.stack)] += v
		a.total += v
	}
	return a
}
