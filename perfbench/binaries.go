package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"time"
)

// tools runs the rostracer and modelsynth binaries built from the
// checkout, with their stores under dir.
type tools struct {
	rostracer, modelsynth, dir string
}

var (
	tracedRe   = regexp.MustCompile(`(?m)^rostracer:\s+(\d+) events, [0-9.]+ MB perf payload`)
	snapshotRe = regexp.MustCompile(`(?m)^rostracer:\s+snapshot (\d+) at [^:]*: (\d+) vertices / (\d+) edges from (\d+) events`)
	readRe     = regexp.MustCompile(`(?m)^modelsynth: session (\S+): (\d+) events`)
	trouble    = regexp.MustCompile(`(?m)^.*(WARNING|ALERT|DEGRADED).*$`)
)

// exe runs one process to completion and returns its log (standard
// error) and the CPU time of all its threads, user and system.
func exe(bin string, args ...string) (log string, cpu time.Duration, err error) {
	var stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stderr = &stderr
	err = cmd.Run()
	if cmd.ProcessState != nil {
		cpu = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	}
	return stderr.String(), cpu, err
}

// setup times a rostracer invocation of wl that traces nothing: process
// start, world boot, probe load and attach, application build, store and
// sinks, shutdown.
func (t tools) setup(wl workload, seed uint64) (time.Duration, error) {
	out := filepath.Join(t.dir, "setup")
	if err := os.RemoveAll(out); err != nil {
		return 0, err
	}
	log, cpu, err := exe(t.rostracer, wl.args(seed, 0, out)...)
	if err != nil {
		return 0, fmt.Errorf("rostracer -duration 0: %v\n%s", err, log)
	}
	return cpu, os.RemoveAll(out)
}

// session traces one session of wl with rostracer, synthesizes its model
// with modelsynth, and checks what both wrote: a clean exit with nothing
// lost and no alert fired, the same event count traced, snapshotted and
// read back, the last live snapshot byte-identical to the model rebuilt
// from disk, and that model the application's design. The set-up
// invocation with the same seed runs first.
func (t tools) session(wl workload, seed uint64) (s sample, err error) {
	if s.setup, err = t.setup(wl, seed); err != nil {
		return s, err
	}
	out := filepath.Join(t.dir, "store")
	if err := os.RemoveAll(out); err != nil {
		return s, err
	}
	tlog, cpu, err := exe(t.rostracer, wl.args(seed, wl.duration, out)...)
	s.trace = cpu
	if err != nil {
		if lines := trouble.FindAllString(tlog, -1); len(lines) > 0 {
			return s, fmt.Errorf("%w: rostracer: %v: %q", errWrong, err, lines)
		}
		return s, fmt.Errorf("rostracer: %v\n%s", err, tlog)
	}
	model := filepath.Join(out, "model.json")
	mlog, cpu, err := exe(t.modelsynth, "-in", out, "-json", model)
	s.model = cpu
	if err != nil {
		return s, fmt.Errorf("modelsynth: %v\n%s", err, mlog)
	}

	traced := tracedRe.FindStringSubmatch(tlog)
	snaps := snapshotRe.FindAllStringSubmatch(tlog, -1)
	read := readRe.FindStringSubmatch(mlog)
	if traced == nil || len(snaps) == 0 || read == nil {
		return s, fmt.Errorf("%w: missing summary lines in the logs:\n%s%s", errWrong, tlog, mlog)
	}
	last := snaps[len(snaps)-1]
	events := atoi(traced[1])
	s.events = uint64(events)
	wantSnaps := int(wl.duration / wl.snapshotEvery)
	switch {
	case trouble.MatchString(tlog) || trouble.MatchString(mlog):
		return s, fmt.Errorf("%w: %q", errWrong, append(trouble.FindAllString(tlog, -1), trouble.FindAllString(mlog, -1)...))
	case events == 0:
		return s, fmt.Errorf("%w: rostracer traced no events", errWrong)
	case len(snaps) != wantSnaps || atoi(last[1]) != wantSnaps:
		return s, fmt.Errorf("%w: %d live snapshots, want %d", errWrong, len(snaps), wantSnaps)
	case read[1] != session || atoi(read[2]) != events || atoi(last[4]) != events:
		return s, fmt.Errorf("%w: %d events traced, %s in the last snapshot, %s read back from %s",
			errWrong, events, last[4], read[2], read[1])
	}
	got, err := os.ReadFile(model)
	if err != nil {
		return s, err
	}
	live, err := os.ReadFile(filepath.Join(out, fmt.Sprintf("%s-snap%03d.json", session, wantSnaps)))
	if err != nil {
		return s, err
	}
	if !bytes.Equal(got, live) {
		return s, fmt.Errorf("%w: the last live snapshot differs from the model synthesized from disk", errWrong)
	}
	var dag struct {
		Vertices []json.RawMessage `json:"vertices"`
		Edges    []json.RawMessage `json:"edges"`
	}
	if err := json.Unmarshal(got, &dag); err != nil {
		return s, fmt.Errorf("%w: model JSON: %v", errWrong, err)
	}
	if len(dag.Vertices) != designVertices || len(dag.Edges) != designEdges {
		return s, fmt.Errorf("%w: model has %d vertices / %d edges, designed %d / %d",
			errWrong, len(dag.Vertices), len(dag.Edges), designVertices, designEdges)
	}
	return s, nil
}

// atoi parses a count the regular expressions above matched as digits.
func atoi(s string) int {
	n, err := strconv.Atoi(s)
	if err != nil {
		panic(err)
	}
	return n
}
