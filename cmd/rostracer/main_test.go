package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/tracesynth/rostracer/internal/ebpf"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
)

// pinBothSession is the digest of every .rtrc segment and snapshot JSON
// written by
//
//	rostracer -app both -cpus 12 -duration 60s -segment 1s -snapshot-every 10s -seed 1
//
// recorded with the scan-and-sort scheduler and the container/heap event
// queue. Both replacements keep the same total orders, so the files must
// stay byte-identical.
const pinBothSession = "b6d81e6d5d248deab512a19e8233deff5fc4e91225e3e846b6def639b95e38a8"

func TestBothSessionBytePin(t *testing.T) {
	dir := t.TempDir()
	store, err := trace.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	build, err := buildFunc("both")
	if err != nil {
		t.Fatal(err)
	}
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)
	degraded, _, err := traceOneRun(store, "both-run000", build, runConfig{
		seed: 1, cpus: 12, duration: 60 * sim.Second, segment: sim.Second,
		snapshotEvery: 10 * sim.Second, filtered: true, outDir: dir,
		hotThreshold: ebpf.DefaultHotThreshold(),
	})
	if err != nil || degraded {
		t.Fatalf("traceOneRun: degraded=%v err=%v", degraded, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if n := e.Name(); strings.HasSuffix(n, ".rtrc") || strings.HasSuffix(n, ".json") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		b, err := os.ReadFile(filepath.Join(dir, n))
		if err != nil {
			t.Fatal(err)
		}
		io.WriteString(h, n+"\n")
		h.Write(b)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pinBothSession {
		t.Fatalf("session digest %s over %d files, want %s", got, len(names), pinBothSession)
	}
}
