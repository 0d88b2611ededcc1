package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"github.com/tracesynth/rostracer/internal/sim"
)

// Digests of the drain-loop experiments' figure text, recorded before
// the experiments moved onto the shared pipeline drive loop. Each
// experiment's output depends on exactly where its drains fall in
// virtual time, so these lock every drain instant through the move.
const (
	pinCapacityText = "11e1ef85e250ed6f5bb260d18c89d049d9c8f1e93b748a1064696f9734bc8881"
	pinChaosText    = "a8abd211dc6cceb79503aab85e657cafa6ecbbacdcb41b2ba77fac688c12d66a"
	pinFig2Text     = "68fb48b01eab06ac54a9b0137299e6a82d9839cb1bd3c24c8e6fba8ab5db583c"
	// The fixed and adaptive rows of the adaptive-drain table: mode,
	// drains, min and max period, events and lost, one row per line.
	pinAdaptiveRows = "2371b10d2d56fc21512020ce95a0325c2d96ebff69404069810bf1aecf287ab3"
)

func checkTextPin(t *testing.T, what, text, want string) {
	t.Helper()
	sum := sha256.Sum256([]byte(text))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("%s digest %s, want %s; text:\n%s", what, got, want, text)
	}
}

func TestCapacityPlanTextPin(t *testing.T) {
	r, err := CapacityPlanExperiment(Config{Runs: 1, Duration: 3 * sim.Second, CPUs: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	checkTextPin(t, "capacity-plan text", r.Text, pinCapacityText)
}

func TestChaosTextPin(t *testing.T) {
	r, err := ChaosExperiment(Config{Runs: 1, Duration: 4 * sim.Second, CPUs: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	checkTextPin(t, "chaos text", r.Text, pinChaosText)
}

func TestFig2TextPin(t *testing.T) {
	r, err := Fig2Experiment(Config{Runs: 3, Duration: 8 * sim.Second, CPUs: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	checkTextPin(t, "fig2 text", r.Text, pinFig2Text)
}

func TestAdaptiveDrainRowsPin(t *testing.T) {
	r, err := AdaptiveDrainExperiment(Config{Runs: 1, Duration: 4 * sim.Second, CPUs: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var rows strings.Builder
	for _, line := range strings.Split(r.Text, "\n") {
		f := strings.Fields(line)
		// mode, drains, ring-drains, min period, max period, events, lost
		if len(f) != 7 || (f[0] != "fixed" && f[0] != "adaptive") {
			continue
		}
		rows.WriteString(strings.Join([]string{f[0], f[1], f[3], f[4], f[5], f[6]}, " ") + "\n")
	}
	checkTextPin(t, "adaptive-drain fixed/adaptive rows", rows.String(), pinAdaptiveRows)
}
