package repro

import (
	"encoding/json"
	"testing"
	"time"
)

// TestMatrixCatalogs checks every facade catalog without running a trial:
// point names are unique (they key the trial seeds and the pinned rows),
// every point's config marshals to JSON (it is the cache key), no two
// points share an overload knob set (the plane is set per point), and
// every ScenarioCatalog entry compiles.
func TestMatrixCatalogs(t *testing.T) {
	cfg := RubisConfig{Seed: 1, Duration: 20 * time.Second}
	for _, c := range []struct {
		name   string
		points []MatrixPoint
		want   int
	}{
		{"fault", FaultMatrix(cfg).Points, 17},
		{"overload", OverloadMatrix(cfg).Points, 12},
		{"energy", EnergyMatrix(cfg).Points, 9},
		{"failover", FailoverMatrix(cfg).Points, 8},
		{"scenario", ScenarioMatrix(cfg).Points, 12},
	} {
		if len(c.points) != c.want {
			t.Errorf("%s matrix has %d points, want %d", c.name, len(c.points), c.want)
		}
		names := map[string]bool{}
		knobs := map[*OverloadControl]string{}
		for _, p := range c.points {
			if names[p.Name] {
				t.Errorf("%s matrix repeats point %q", c.name, p.Name)
			}
			names[p.Name] = true
			if _, err := json.Marshal(p.Config); err != nil {
				t.Errorf("%s matrix point %q config does not marshal: %v", c.name, p.Name, err)
			}
			if ov := p.Config.Overload; ov != nil {
				if other, ok := knobs[ov]; ok {
					t.Errorf("%s matrix points %q and %q share one overload knob set", c.name, other, p.Name)
				}
				knobs[ov] = p.Name
			}
		}
	}
	for _, sc := range ScenarioCatalog(cfg.Duration) {
		sc.Seed = cfg.Seed
		if _, err := sc.Compile(); err != nil {
			t.Errorf("catalog scenario %q does not compile: %v", sc.Name, err)
		}
	}
}
