package scenario

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// randomSpec draws an arbitrary-but-valid spec for kind. The rand.Rand
// here drives only quick-check case selection (test-input generation),
// never the simulation: the generator under test sees nothing but the
// spec, and determinism for a fixed spec is exactly what the properties
// assert.
func randomSpec(kind Kind, r *rand.Rand) GenSpec {
	return GenSpec{
		Kind:     kind,
		Duration: sim.Time(1+r.Intn(12)) * sim.Second,
		Rate:     5 + r.Float64()*120,
		Seed:     1 + r.Int63n(1<<40),
	}
}

// TestGeneratorProperties quick-checks every generator family:
//
//  1. arrival times are nondecreasing (the format's ordering invariant),
//  2. request and session counts are conserved against the GenMeta the
//     generator itself declared in the trace header,
//  3. every emitted class is in the family's declared vocabulary and is
//     covered by DefaultClassMap,
//  4. equal specs yield byte-identical encodings,
//  5. the encoding round-trips through Decode.
func TestGeneratorProperties(t *testing.T) {
	for _, kind := range Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			classMap := DefaultClassMap()
			vocab := make(map[string]bool)
			for _, c := range kind.Classes() {
				vocab[c] = true
				if classMap[c] == "" {
					t.Fatalf("class %q has no DefaultClassMap entry", c)
				}
			}
			property := func(spec GenSpec) bool {
				tr, err := Generate(spec)
				if err != nil {
					t.Logf("Generate(%+v): %v", spec, err)
					return false
				}
				if err := tr.Validate(); err != nil {
					t.Logf("invalid trace: %v", err)
					return false
				}
				var last sim.Time
				for i, r := range tr.Reqs {
					if r.T < last || r.T >= spec.Duration {
						t.Logf("req %d at %v breaks ordering/span (last %v, duration %v)", i, r.T, last, spec.Duration)
						return false
					}
					last = r.T
					if !vocab[r.Class] {
						t.Logf("req %d has class %q outside the %s vocabulary", i, r.Class, kind)
						return false
					}
				}
				meta, ok := ParseGenMeta(tr.Meta)
				if !ok {
					t.Logf("generated trace carries no GenMeta")
					return false
				}
				info := tr.Info()
				if meta.Reqs != info.Reqs || meta.Sessions != info.Sessions {
					t.Logf("meta declares %d reqs/%d sessions, trace holds %d/%d",
						meta.Reqs, meta.Sessions, info.Reqs, info.Sessions)
					return false
				}
				again, err := Generate(spec)
				if err != nil {
					return false
				}
				var a, b bytes.Buffer
				if tr.Encode(&a) != nil || again.Encode(&b) != nil {
					return false
				}
				if !bytes.Equal(a.Bytes(), b.Bytes()) {
					t.Logf("two generations from one spec encode differently")
					return false
				}
				dec, err := Decode(a.Bytes())
				if err != nil {
					t.Logf("generated trace does not decode: %v", err)
					return false
				}
				return len(dec.Reqs) == len(tr.Reqs)
			}
			cfg := &quick.Config{
				MaxCount: 12,
				Values: func(v []reflect.Value, r *rand.Rand) {
					v[0] = reflect.ValueOf(randomSpec(kind, r))
				},
			}
			if err := quick.Check(property, cfg); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestGeneratorSeedsDiverge: different seeds must actually change the
// trace, or the "byte-identical for equal seeds" property is vacuous.
func TestGeneratorSeedsDiverge(t *testing.T) {
	for _, kind := range Kinds() {
		spec := GenSpec{Kind: kind, Duration: 5 * sim.Second, Rate: 50, Seed: 1}
		a, err := Generate(spec)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		spec.Seed = 2
		b, err := Generate(spec)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		var ab, bb bytes.Buffer
		if a.Encode(&ab) != nil || b.Encode(&bb) != nil {
			t.Fatal("encode failed")
		}
		if bytes.Equal(ab.Bytes(), bb.Bytes()) {
			t.Errorf("%s: seeds 1 and 2 produced identical traces", kind)
		}
	}
}

// TestGenSpecValidate pins the diagnosable-error contract on bad specs.
func TestGenSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec GenSpec
		want string
	}{
		{"unknown kind", GenSpec{Kind: "steady"}, "unknown generator kind"},
		{"no duration", GenSpec{Kind: FlashCrowd}, "positive duration"},
		{"negative rate", GenSpec{Kind: Diurnal, Duration: sim.Second, Rate: -1}, "negative rate"},
		{"bad night floor", GenSpec{Kind: Diurnal, Duration: sim.Second, NightFloor: 1.5}, "night floor"},
		{"negative alpha", GenSpec{Kind: HeavyTail, Duration: sim.Second, Alpha: -2}, "alpha"},
		{"bad heavy fraction", GenSpec{Kind: MLServing, Duration: sim.Second, HeavyFraction: 2}, "heavy fraction"},
		{"kv fractions", GenSpec{Kind: KVTier, Duration: sim.Second, ReadFraction: 0.9, ScanFraction: 0.3}, "kv fractions"},
		// A negative update period would step model updates backwards forever.
		{"negative update period", GenSpec{Kind: MLServing, Duration: sim.Second, UpdatePeriod: -sim.Second}, "update period"},
	}
	for _, tc := range cases {
		_, err := Generate(tc.spec)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestGenSpecDraws: the draw estimate bounds what Generate emits, and
// counts the knobs that multiply arrivals (spike factor, sub-request
// sessions, model-update cadence).
func TestGenSpecDraws(t *testing.T) {
	for _, k := range Kinds() {
		spec := GenSpec{Kind: k, Duration: 20 * sim.Second, Rate: 30, Seed: 2}
		tr, err := Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		if d := spec.Draws(); float64(len(tr.Reqs)) > 1.2*d {
			t.Errorf("%s: generated %d requests, draw estimate %.0f", k, len(tr.Reqs), d)
		}
	}
	base := GenSpec{Kind: Diurnal, Duration: 10 * sim.Second, Rate: 10}
	if got := base.Draws(); got != 100 {
		t.Errorf("diurnal draws = %g, want rate x seconds = 100", got)
	}
	for name, spec := range map[string]GenSpec{
		"spike factor":     {Kind: FlashCrowd, Duration: 10 * sim.Second, Rate: 10, SpikeFactor: 1000},
		"tiny sessions":    {Kind: HeavyTail, Duration: 10 * sim.Second, Rate: 10, SessionMin: 1e-6},
		"update every 1us": {Kind: MLServing, Duration: 10 * sim.Second, Rate: 10, UpdatePeriod: sim.Microsecond},
	} {
		if got := spec.Draws(); got < 1000*base.Draws() {
			t.Errorf("%s: draws = %g, want >= %g", name, got, 1000*base.Draws())
		}
	}
}

// TestFlashCrowdShape: the spike window must actually concentrate
// arrivals, or the generator does not model a flash crowd.
func TestFlashCrowdShape(t *testing.T) {
	spec := GenSpec{Kind: FlashCrowd, Duration: 30 * sim.Second, Rate: 20, Seed: 3}
	tr, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.applyDefaults()
	var in, out int
	for _, r := range tr.Reqs {
		if r.T >= spec.SpikeStart && r.T < spec.SpikeStart+spec.SpikeLen {
			in++
		} else {
			out++
		}
	}
	inRate := float64(in) / spec.SpikeLen.Seconds()
	outRate := float64(out) / (spec.Duration - spec.SpikeLen).Seconds()
	if inRate < 3*outRate {
		t.Errorf("spike rate %.1f/s is not a crowd over the %.1f/s baseline", inRate, outRate)
	}
}

// TestHeavyTailShape: session lengths must be heavy-tailed — some
// session has to run an order of magnitude past the minimum.
func TestHeavyTailShape(t *testing.T) {
	tr, err := Generate(GenSpec{Kind: HeavyTail, Duration: 60 * sim.Second, Rate: 60, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	perSession := make(map[int64]int)
	for _, r := range tr.Reqs {
		perSession[r.Session]++
	}
	max := 0
	for _, n := range perSession {
		if n > max {
			max = n
		}
	}
	if max < 30 {
		t.Errorf("longest session is %d requests; tail is not heavy", max)
	}
}
