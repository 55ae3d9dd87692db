package repro

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// fuzzScenarioMax bounds a fuzzed run's simulated duration so every input
// stays cheap; only the harness clamps, the parser and compiler see the
// spec as written.
const fuzzScenarioMax = 2 * time.Second

// FuzzScenario drives JSON specs through ParseScenario → Compile →
// RunScenario. No input may panic, and every spec ParseScenario accepts
// must either run or fail to compile with a diagnosable error.
func FuzzScenario(f *testing.F) {
	for _, data := range committedSpecs(f, fuzzScenarioMax) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseScenario(data)
		if err != nil {
			if err.Error() == "" {
				t.Fatal("parse error with empty message")
			}
			return
		}
		if s.Duration <= 0 || s.Duration > fuzzScenarioMax {
			s.Duration = fuzzScenarioMax
		}
		if s.Warmup >= s.Duration {
			s.Warmup = s.Duration / 4
		}
		run, err := RunScenario(s)
		if err != nil {
			if err.Error() == "" {
				t.Fatal("compile error with empty message")
			}
			return
		}
		if run == nil {
			t.Fatal("RunScenario returned neither a run nor an error")
		}
	})
}

// FuzzScenarioCompile drives the same seeds through ParseScenario →
// Compile without running them, so the parser, validator and trace
// pre-flight get the fuzzing budget a simulated run would otherwise spend.
// Compile sees the spec as written: its size caps, not a harness clamp,
// must keep every input cheap.
func FuzzScenarioCompile(f *testing.F) {
	for _, data := range committedSpecs(f, fuzzScenarioMax) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseScenario(data)
		if err != nil {
			if err.Error() == "" {
				t.Fatal("parse error with empty message")
			}
			return
		}
		if _, err := s.Compile(); err != nil && err.Error() == "" {
			t.Fatal("compile error with empty message")
		}
	})
}

// committedSpecs returns the JSON of every committed scenario: the bench
// specs, the scenario catalog for runs of duration d, and the chaos
// corpus.
func committedSpecs(tb testing.TB, d time.Duration) [][]byte {
	var out [][]byte
	specs, _ := filepath.Glob(filepath.Join("bench", "specs", "*.json"))
	for _, path := range specs {
		data, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, data)
	}
	for _, s := range ScenarioCatalog(d) {
		data, err := json.Marshal(s)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, data)
	}
	corpus, _ := filepath.Glob(filepath.Join("testdata", "chaos", "*.json"))
	for _, path := range corpus {
		data, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		var entry struct {
			Scenario json.RawMessage `json:"scenario"`
		}
		if err := json.Unmarshal(data, &entry); err != nil {
			tb.Fatalf("%s: %v", path, err)
		}
		out = append(out, entry.Scenario)
	}
	if len(specs) == 0 || len(corpus) == 0 {
		tb.Fatal("no committed scenario specs found")
	}
	return out
}
