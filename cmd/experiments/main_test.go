package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// runAsMainEnv makes the test binary run main instead of the tests, so
// a test can run it as experiments with its own flags.
const runAsMainEnv = "EXPERIMENTS_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// wallTime matches the line printed after each experiment with the host
// time it took: it measures the machine, not the seed.
var wallTime = regexp.MustCompile(`(?m)^\(wall time [0-9.]+s\)$`)

// TestOutputDeterministic runs one experiment five times with the same
// flags and requires the same report each time, the (wall time …s)
// lines dropped: a seeded experiment may not depend on map order, the
// parallel harness' scheduling or the host.
func TestOutputDeterministic(t *testing.T) {
	var first string
	for run := 0; run < 5; run++ {
		cmd := exec.Command(os.Args[0], "-run", "fig3a", "-runs", "2", "-duration", "2s")
		cmd.Env = append(os.Environ(), runAsMainEnv+"=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				t.Fatal(err)
			}
			t.Fatalf("run %d exits %d:\n%s%s", run, exit.ExitCode(), stdout.String(), stderr.String())
		}
		if n := len(wallTime.FindAllString(stdout.String(), -1)); n != 1 {
			t.Fatalf("run %d printed %d wall-time lines, want 1:\n%s", run, n, stdout.String())
		}
		got := wallTime.ReplaceAllString(stdout.String(), "")
		if run == 0 {
			if !strings.Contains(got, "[OK]") {
				t.Fatalf("fig3a did not reproduce:\n%s", got)
			}
			first = got
			continue
		}
		if got != first {
			t.Fatalf("run %d differs from run 0:\n--- got ---\n%s\n--- run 0 ---\n%s", run, got, first)
		}
	}
}
