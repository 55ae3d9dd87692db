// Package scenario supplies the workload side of the experiment harness:
// a compact binary trace format (.wtrace) describing an open-loop request
// arrival process, deterministic generators that synthesize traces for
// workload families the paper never measured (flash crowds, diurnal
// curves, heavy-tailed sessions, ML-inference serving, a memcached-style
// key-value tier), and the inspection helpers the reproscn CLI builds on.
//
// A trace is a flat, time-ordered list of requests — class name, arrival
// sim-time, session id, payload size — deliberately free of any RUBiS
// vocabulary: classes are strings mapped onto concrete request profiles
// at replay time (see rubis.ResolveTrace), so the same trace can drive
// different service catalogs. A .wtrace is an instance of codec's log
// container (CRC32-framed segments, lazy string interning) whose record
// body is one Req with a varint time delta; docs/scenarios.md specifies
// it. Encode(Decode(x)) is byte-identical, and every generator is a pure
// function of its spec and seed.
package scenario

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Req is one trace request: the unit of the .wtrace format.
type Req struct {
	T       sim.Time // arrival sim-time; nondecreasing across the trace
	Class   string   // request class name (interned in the encoding)
	Session int64    // session/connection identifier (>= 0)
	Size    int64    // request payload bytes; 0 selects the class default
}

// Trace is a fully decoded workload trace.
type Trace struct {
	Version uint16
	Seed    int64  // the seed the trace was generated from (0 for recordings)
	Meta    []byte // opaque header blob (generators store GenMeta JSON here)
	Reqs    []Req  // arrival order
	Bytes   int    // encoded size the trace was decoded from (0 if built in memory)
}

// Span returns the time between the first and last arrival.
func (t *Trace) Span() sim.Time {
	if len(t.Reqs) == 0 {
		return 0
	}
	return t.Reqs[len(t.Reqs)-1].T - t.Reqs[0].T
}

// Validate reports the first structural error in the trace: out-of-order
// arrivals, negative sessions or sizes, or an empty class name. Encode
// performs the same checks, so a valid trace always encodes.
func (t *Trace) Validate() error {
	var last sim.Time
	for i, r := range t.Reqs {
		if err := checkReq(i, r, last); err != nil {
			return err
		}
		last = r.T
	}
	return nil
}

// checkReq reports why request i, r, cannot follow a request that arrived
// at last; Validate and Encode share it.
func checkReq(i int, r Req, last sim.Time) error {
	switch {
	case r.T < last:
		return fmt.Errorf("scenario: request %d arrives at %v, before request %d at %v: time went backwards", i, r.T, i-1, last)
	case r.Class == "":
		return fmt.Errorf("scenario: request %d has an empty class", i)
	case r.Session < 0:
		return fmt.Errorf("scenario: request %d has negative session %d", i, r.Session)
	case r.Size < 0:
		return fmt.Errorf("scenario: request %d has negative size %d", i, r.Size)
	}
	return nil
}

// ClassCount is one request class's tally.
type ClassCount struct {
	Class string
	Count int
}

// Info summarises a trace for inspection.
type Info struct {
	Version     uint16
	Seed        int64
	Meta        []byte
	Reqs        int
	Bytes       int
	BytesPerReq float64 // amortized over the whole file, header included
	First, Last sim.Time
	Sessions    int          // distinct session ids
	Classes     []ClassCount // sorted by class name
}

// Info computes per-class and session statistics.
func (t *Trace) Info() Info {
	info := Info{
		Version: t.Version,
		Seed:    t.Seed,
		Meta:    t.Meta,
		Reqs:    len(t.Reqs),
		Bytes:   t.Bytes,
	}
	if len(t.Reqs) > 0 {
		info.First = t.Reqs[0].T
		info.Last = t.Reqs[len(t.Reqs)-1].T
		if t.Bytes > 0 {
			info.BytesPerReq = float64(t.Bytes) / float64(len(t.Reqs))
		}
	}
	classes := make(map[string]int)
	sessions := make(map[int64]struct{})
	for _, r := range t.Reqs {
		classes[r.Class]++
		sessions[r.Session] = struct{}{}
	}
	info.Sessions = len(sessions)
	names := make([]string, 0, len(classes))
	for name := range classes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		info.Classes = append(info.Classes, ClassCount{Class: name, Count: classes[name]})
	}
	return info
}
