package main

import (
	"bytes"
	"errors"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
)

// runAsMainEnv makes the test binary run main instead of the tests, so
// a test can run it as rostracer with its own flags.
const runAsMainEnv = "ROSTRACER_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestOutputDeterministic runs rostracer five times with the same flags,
// each into a fresh working directory, and requires the same standard
// output, the same log and the same written files (segments and
// snapshots), byte for byte: a seeded session may not depend on map
// order, scheduling or the host.
func TestOutputDeterministic(t *testing.T) {
	var first map[string]string
	for run := 0; run < 5; run++ {
		dir := t.TempDir()
		cmd := exec.Command(os.Args[0], "-app", "both", "-duration", "3s", "-segment", "1s",
			"-snapshot-every", "1s", "-out", "traces")
		cmd.Dir = dir
		cmd.Env = append(os.Environ(), runAsMainEnv+"=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				t.Fatal(err)
			}
			t.Fatalf("run %d exits %d:\n%s", run, exit.ExitCode(), stderr.String())
		}
		got := map[string]string{"stdout": stdout.String(), "log": stderr.String()}
		entries, err := os.ReadDir(filepath.Join(dir, "traces"))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(dir, "traces", e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			got[e.Name()] = string(b)
		}
		if run == 0 {
			// Three segments and three snapshots (JSON + DOT) besides the
			// two streams.
			if len(got) != 2+3+6 {
				t.Fatalf("run 0 wrote %v", slices.Sorted(maps.Keys(got)))
			}
			first = got
			continue
		}
		if !maps.Equal(got, first) {
			for _, name := range slices.Sorted(maps.Keys(first)) {
				if got[name] != first[name] {
					t.Fatalf("run %d: %s differs from run 0 (%d vs %d bytes)", run, name, len(got[name]), len(first[name]))
				}
			}
			t.Fatalf("run %d wrote %v, run 0 %v", run, slices.Sorted(maps.Keys(got)), slices.Sorted(maps.Keys(first)))
		}
	}
}
