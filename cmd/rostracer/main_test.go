package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"log"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

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

// pinBothLog is the digest of rostracer's log for the same session: the
// per-segment lines, the snapshot lines and the summary that perfbench
// parses. It was recorded before probe programs got a single load-time
// dispatch form, from that build's log with every per-segment
// ", tiers t0:N t1:N t2:N" field cut out; the field is gone from the
// log since, and nothing else in it changed.
const pinBothLog = "f96629fae78f5a26eb7421405de386b77d96aa4a093ff626e3ef771b51b32d87"

// traceLog runs one session named session of app into dir and returns
// whether it degraded and its log, in the format the binary prints it
// (flags off, "rostracer: " prefix).
func traceLog(t *testing.T, dir, app, session string, cfg runConfig) (bool, string) {
	t.Helper()
	store, err := trace.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	build, err := buildFunc(app)
	if err != nil {
		t.Fatal(err)
	}
	var logBuf bytes.Buffer
	log.SetOutput(&logBuf)
	log.SetFlags(0)
	log.SetPrefix("rostracer: ")
	defer func() {
		log.SetOutput(os.Stderr)
		log.SetFlags(log.LstdFlags)
		log.SetPrefix("")
	}()
	cfg.outDir, cfg.filtered = dir, true
	degraded, _, err := traceOneRun(store, session, build, cfg)
	if err != nil {
		t.Fatalf("traceOneRun: %v\n%s", err, logBuf.String())
	}
	return degraded, logBuf.String()
}

// traceBothSession runs the pinned session into dir and returns its log.
func traceBothSession(t *testing.T, dir string) string {
	t.Helper()
	degraded, text := traceLog(t, dir, "both", "both-run000", runConfig{
		seed: 1, cpus: 12, duration: 60 * sim.Second, segment: sim.Second,
		snapshotEvery: 10 * sim.Second,
	})
	if degraded {
		t.Fatalf("session degraded:\n%s", text)
	}
	return text
}

func TestBothSessionLogPin(t *testing.T) {
	text := traceBothSession(t, t.TempDir())
	sum := sha256.Sum256([]byte(text))
	if got := hex.EncodeToString(sum[:]); got != pinBothLog {
		t.Fatalf("session log digest %s, want %s; log:\n%s", got, pinBothLog, text)
	}
}

func TestBothSessionBytePin(t *testing.T) {
	dir := t.TempDir()
	traceBothSession(t, dir)
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

// traceSYN runs a syn session named "s" into dir at a 1 s segment
// period.
func traceSYN(t *testing.T, dir string, duration, snapshotEvery sim.Duration) (degraded bool, logText string) {
	t.Helper()
	return traceLog(t, dir, "syn", "s", runConfig{
		seed: 1, cpus: 4, duration: duration, segment: sim.Second, snapshotEvery: snapshotEvery,
	})
}

// TestSnapshotWriteFailureKeepsTracing checks that snapshots are
// fault-isolated from the trace store: a snapshot that cannot be
// written degrades the session and ends the cuts, but every segment is
// still persisted and no partial snapshot is left behind.
func TestSnapshotWriteFailureKeepsTracing(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "s-snap001.dot"), 0o755); err != nil {
		t.Fatal(err)
	}
	degraded, logText := traceSYN(t, dir, 5*sim.Second, 2*sim.Second)
	if !degraded {
		t.Fatalf("a failed snapshot write left the session healthy:\n%s", logText)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "s-*.rtrc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 5 {
		t.Fatalf("%d segments persisted, want 5:\n%s", len(segs), logText)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "s-snap*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 0 {
		t.Fatalf("snapshot files left behind: %v", snaps)
	}
	if !strings.Contains(logText, "WARNING: snapshot 1 not written") {
		t.Fatalf("log does not report the failed snapshot:\n%s", logText)
	}
}

// TestNormalShutdownCutsFinalSnapshot checks that a session ending
// between cuts still snapshots its tail: 15 s at one cut per 10 s
// writes snap001 at t=10 s and a final snap002 holding every event.
func TestNormalShutdownCutsFinalSnapshot(t *testing.T) {
	dir := t.TempDir()
	degraded, logText := traceSYN(t, dir, 15*sim.Second, 10*sim.Second)
	if degraded {
		t.Fatalf("session degraded:\n%s", logText)
	}
	m := regexp.MustCompile(`  final snapshot 2: \d+ vertices from (\d+) events\n`).FindStringSubmatch(logText)
	if m == nil {
		t.Fatalf("no final snapshot 2 line in the log:\n%s", logText)
	}
	if !strings.Contains(logText, "  "+m[1]+" events, ") {
		t.Fatalf("final snapshot holds %s events, not the session's:\n%s", m[1], logText)
	}
	for _, name := range []string{"s-snap001.json", "s-snap002.json", "s-snap002.dot"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestZeroDurationSummary checks a session that traces nothing keeps the
// summary line's "N events, X MB perf payload" prefix and reports no
// probe cost instead of dividing by its zero span.
func TestZeroDurationSummary(t *testing.T) {
	_, logText := traceLog(t, t.TempDir(), "both", "s", runConfig{
		seed: 1, cpus: 12, duration: 0, segment: sim.Second,
	})
	if !regexp.MustCompile(`(?m)^rostracer:\s+\d+ events, [0-9.]+ MB perf payload$`).MatchString(logText) {
		t.Fatalf("no cost-free summary line in the log:\n%s", logText)
	}
	if strings.Contains(logText, "probe cost") || strings.Contains(logText, "Inf") {
		t.Fatalf("zero-duration session reports a probe cost:\n%s", logText)
	}
}
