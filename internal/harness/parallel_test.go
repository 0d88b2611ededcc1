package harness

import (
	"errors"
	"fmt"
	"testing"

	"github.com/tracesynth/rostracer/internal/sim"
)

func TestRunSeriesOrdersResults(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		out, err := runSeries(workers, 20, func(run int) (int, error) {
			return run * run, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out) != 20 {
			t.Fatalf("workers=%d: got %d results", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestRunSeriesReportsLowestError(t *testing.T) {
	wantErr := errors.New("run 3 failed")
	for _, workers := range []int{1, 4} {
		_, err := runSeries(workers, 10, func(run int) (int, error) {
			if run == 7 {
				return 0, errors.New("run 7 failed")
			}
			if run == 3 {
				return 0, wantErr
			}
			return run, nil
		})
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, wantErr)
		}
	}
}

func TestRunSeriesZeroRuns(t *testing.T) {
	out, err := runSeries(4, 0, func(int) (int, error) { return 0, nil })
	if err != nil || out != nil {
		t.Fatalf("got %v, %v", out, err)
	}
}

// TestParallelExperimentsDeterministic is the acceptance guarantee of the
// parallel harness: for a fixed Config, every experiment's Result.Text (and
// OK flag and notes) must be byte-identical no matter how many workers the
// per-run fan-out uses.
func TestParallelExperimentsDeterministic(t *testing.T) {
	cfg := Config{Runs: 4, Duration: 2 * sim.Second, CPUs: 4, Seed: 11}
	experiments := []struct {
		name string
		f    func(Config) (Result, error)
	}{
		{"fig3a", Fig3aExperiment},
		{"fig3b", Fig3bExperiment},
		{"tableII", TableIIExperiment},
		{"fig4", Fig4Experiment},
		{"fig2", Fig2Experiment},
		{"ablation-sync", AblationSyncExperiment},
		{"validation", ValidationExperiment},
	}
	for _, e := range experiments {
		t.Run(e.name, func(t *testing.T) {
			seqCfg := cfg
			seqCfg.workers = 1
			parCfg := cfg
			parCfg.workers = 8

			seq, err := e.f(seqCfg)
			if err != nil {
				t.Fatal(err)
			}
			par, err := e.f(parCfg)
			if err != nil {
				t.Fatal(err)
			}
			if seq.Text != par.Text {
				t.Fatalf("Result.Text diverged between sequential and parallel runs:\n--- sequential ---\n%s\n--- parallel ---\n%s",
					seq.Text, par.Text)
			}
			if seq.OK != par.OK {
				t.Fatalf("OK diverged: sequential %v, parallel %v", seq.OK, par.OK)
			}
			if fmt.Sprint(seq.Notes) != fmt.Sprint(par.Notes) {
				t.Fatalf("Notes diverged:\nsequential: %v\nparallel:   %v", seq.Notes, par.Notes)
			}
		})
	}
}
