package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSweepBenchRefusesBaselineAsOutput pins the regression guard against
// its vacuous form: when the report would be written over the baseline it
// is compared with, reprobench must exit 2 at once, before running the
// sweep, and leave the baseline untouched.
func TestSweepBenchRefusesBaselineAsOutput(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "reprobench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "BENCH_sweep.json"))
	if err != nil {
		t.Fatal(err)
	}
	baseline := filepath.Join(dir, "BENCH_sweep.json")
	if err := os.WriteFile(baseline, want, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-exp", "sweep-bench", "-baseline", "BENCH_sweep.json"},
		{"-exp", "sweep-bench", "-json", "./BENCH_sweep.json", "-baseline", baseline},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		cmd := exec.CommandContext(ctx, bin, args...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		timedOut := ctx.Err() != nil
		cancel()
		var exit *exec.ExitError
		if timedOut || !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("%v: err=%v (timed out: %v), want a quick exit 2\n%s", args, err, timedOut, out)
		}
		if !strings.Contains(string(out), "baseline") {
			t.Errorf("%v: message does not name the baseline: %s", args, out)
		}
		got, err := os.ReadFile(baseline)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%v: the baseline file was modified", args)
		}
	}
}
