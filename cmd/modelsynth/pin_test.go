package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"github.com/tracesynth/rostracer/internal/apps"
	"github.com/tracesynth/rostracer/internal/core"
	"github.com/tracesynth/rostracer/internal/rclcpp"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
	"github.com/tracesynth/rostracer/internal/tracers"
)

// offlinePinSegments is how many drain periods the pinned session is
// written as: enough segments for the read-side k-way merge to matter.
const offlinePinSegments = 10

// writeSegmentedSession is writeSessionTo a fresh directory.
func writeSegmentedSession(t *testing.T, format trace.Format) *trace.Store {
	t.Helper()
	return writeSessionTo(t, t.TempDir(), format)
}

// writeSessionTo traces SYN + AVP on 6 CPUs (seed 4) for
// offlinePinSegments periods of 400 ms, streaming each drain into its
// own segment of session "run", in the given format, of the store at
// dir.
func writeSessionTo(t *testing.T, dir string, format trace.Format) *trace.Store {
	t.Helper()
	w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: 6, Seed: 4})
	b, err := tracers.NewBundle(w.Runtime())
	if err != nil {
		t.Fatal(err)
	}
	tracers.BridgeSched(w.Machine(), w.Runtime())
	for _, err := range []error{b.StartInit(), b.StartRT(), b.StartKernel(true)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	apps.BuildSYN(w, apps.SYNConfig{})
	apps.BuildAVP(w, apps.AVPConfig{})
	b.StopInit()
	store, err := trace.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	store.Format = format
	for seg := 0; seg < offlinePinSegments; seg++ {
		w.Run(400 * sim.Millisecond)
		sw, err := store.WriteSegment("run", seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.StreamTo(sw); err != nil {
			t.Fatal(err)
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return store
}

// offlineOutputs synthesizes the store the way modelsynth does and
// renders its -json, -dot and -chains outputs.
func offlineOutputs(t *testing.T, store *trace.Store) (jsonOut, dot, chains string) {
	t.Helper()
	sink := core.NewSynthesizeSink()
	if err := store.StreamSession("run", sink); err != nil {
		t.Fatal(err)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	d := mergeSessions([]*core.DAG{sink.DAG()})
	var j, c bytes.Buffer
	if err := core.WriteJSON(&j, d); err != nil {
		t.Fatal(err)
	}
	printChains(&c, d)
	return j.String(), core.ToDOT(d, "synthesized timing model"), c.String()
}

// Digests of offlineOutputs over writeSegmentedSession, recorded before
// the read path handed events out by reference.
const (
	pinOfflineV2 = "44ef6b07645352ff111f3694d7237d4e8c8fdc95bb3e76d6c73244307003c8ef"
	pinOfflineV1 = "44ef6b07645352ff111f3694d7237d4e8c8fdc95bb3e76d6c73244307003c8ef"
)

// TestOfflineSynthesisBytePin pins modelsynth's -json, -dot and -chains
// output over a multi-segment session, once per on-disk format: the
// offline read path (segment decode, k-way merge, synthesis) must not
// change a byte of the model.
func TestOfflineSynthesisBytePin(t *testing.T) {
	for _, tc := range []struct {
		format trace.Format
		pin    string
	}{{trace.FormatV2, pinOfflineV2}, {trace.FormatV1, pinOfflineV1}} {
		t.Run(tc.format.String(), func(t *testing.T) {
			store := writeSegmentedSession(t, tc.format)
			jsonOut, dot, chains := offlineOutputs(t, store)
			if len(chains) < 100 || len(dot) < 1000 {
				t.Fatalf("outputs implausibly small: %d-byte chains, %d-byte DOT", len(chains), len(dot))
			}
			h := sha256.New()
			for _, part := range []string{jsonOut, dot, chains} {
				fmt.Fprintf(h, "%d\n%s", len(part), part)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.pin {
				t.Errorf("offline outputs digest %s, want %s", got, tc.pin)
			}
		})
	}
}
