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
	specs, _ := filepath.Glob(filepath.Join("bench", "specs", "*.json"))
	for _, path := range specs {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, s := range ScenarioCatalog(fuzzScenarioMax) {
		data, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	corpus, _ := filepath.Glob(filepath.Join("testdata", "chaos", "*.json"))
	for _, path := range corpus {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		var entry struct {
			Scenario json.RawMessage `json:"scenario"`
		}
		if err := json.Unmarshal(data, &entry); err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		f.Add([]byte(entry.Scenario))
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
