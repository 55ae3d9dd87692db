package repro

import (
	"fmt"
	"strings"

	"repro/internal/sweep"
)

// MatrixPoint is one named configuration of an experiment matrix: a
// complete RUBiS configuration plus the plane it runs on. The point is
// also its cache-keyed configuration, so everything that changes the
// outcome is reachable from it. Config.Seed is replaced per trial by the
// sweep's derived seed.
type MatrixPoint struct {
	Name        string      `json:"name"`
	Config      RubisConfig `json:"config"`
	Coordinated bool        `json:"coordinated"`
}

// labels splits a "first/second" point name (e.g. "loss 30%/reliable",
// "off/1x") into its two halves; second is empty for a name without one.
func (p MatrixPoint) labels() (first, second string) {
	first, second, _ = strings.Cut(p.Name, "/")
	return first, second
}

// Matrix is an experiment catalog: named points, the projection that
// turns one trial's run into its result row, and the cache version.
type Matrix[R any] struct {
	// Version invalidates cached trials when the experiment's meaning
	// changes. Bump it on any model or metric change.
	Version string
	// Points run in this order; names must be unique.
	Points []MatrixPoint
	// Project builds the trial's row from its point and measurements.
	Project func(MatrixPoint, *RubisRun) R
}

// MatrixResult is one parallel run of a matrix.
type MatrixResult[R any] struct {
	// Sweep is the raw engine result (stable trial order, deterministic
	// JSON, wall-clock throughput).
	Sweep *sweep.RunResult
	// Rows holds the decoded trials in the same stable order.
	Rows []R
}

// Row returns the first-repetition row of the named point.
func (r *MatrixResult[R]) Row(point string) (R, bool) {
	for i, t := range r.Sweep.Trials {
		if t.Point == point {
			return r.Rows[i], true
		}
	}
	var zero R
	return zero, false
}

// RunMatrix fans the matrix (points × repetitions) across the sweep
// worker pool: every trial runs its point's config on the trial seed and
// projects the run into a row. Rows round-trip through the engine's
// canonical JSON, so they are byte-identical for any Workers value and
// for cache hits. A zero opt.Seed takes the first point's Config.Seed.
func RunMatrix[R any](m Matrix[R], opt SweepOptions) (*MatrixResult[R], error) {
	if opt.Seed == 0 && len(m.Points) > 0 {
		opt.Seed = m.Points[0].Config.Seed
	}
	opts, err := opt.options(m.Version)
	if err != nil {
		return nil, err
	}
	points := make([]sweep.Point, len(m.Points))
	for i, p := range m.Points {
		points[i] = sweep.Point{Name: p.Name, Config: p}
	}
	res, err := sweep.Run(points, func(t sweep.Trial) (any, error) {
		p, ok := t.Point.Config.(MatrixPoint)
		if !ok {
			return nil, fmt.Errorf("repro: matrix point %q has config %T", t.Point.Name, t.Point.Config)
		}
		p.Config.Seed = t.Seed
		return m.Project(p, RunRubis(p.Config, p.Coordinated)), nil
	}, opts)
	if err != nil {
		return nil, err
	}
	if err := res.Err(); err != nil {
		return nil, err
	}
	out := &MatrixResult[R]{Sweep: res, Rows: make([]R, len(res.Trials))}
	for i := range res.Trials {
		if err := res.Decode(i, &out.Rows[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}
