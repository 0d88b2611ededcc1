package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/tracesynth/rostracer/internal/apps"
	"github.com/tracesynth/rostracer/internal/core"
	"github.com/tracesynth/rostracer/internal/rclcpp"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
	"github.com/tracesynth/rostracer/internal/tracers"
)

// loadsSession traces 3 s of SYN + AVP on 6 CPUs (seed 9) into a store
// and synthesizes it the way modelsynth does: the session streamed off
// disk into a SynthesizeSink, which also tracks its span.
func loadsSession(t *testing.T) (*core.DAG, sim.Duration) {
	t.Helper()
	w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: 6, Seed: 9})
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
	w.Run(3 * sim.Second)
	store, err := trace.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sw, err := store.WriteSegment("run", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.StreamTo(sw); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	sink := core.NewSynthesizeSink()
	if err := store.StreamSession("run", sink); err != nil {
		t.Fatal(err)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	first, last := sink.Span()
	return sink.DAG(), last.Sub(first)
}

// pinLoads is modelsynth -loads over loadsSession.
const pinLoads = `
processor loads:
  filter_transform_vlp16_front|sub|lidar_front/points_raw        9.67 Hz     26.83 ms   25.93%
  p2d_ndt_localizer_node|sub|lidars/points_fused_downsampled     9.67 Hz     21.56 ms   20.84%
  filter_transform_vlp16_rear|sub|lidar_rear/points_raw          9.67 Hz     16.98 ms   16.42%
  voxel_grid_cloud_node|sub|lidars/points_fused                  9.67 Hz      8.52 ms    8.24%
  point_cloud_fusion|sub|lidar_front/points_filtered|sync        9.67 Hz      2.80 ms    2.71%
  syn_node1|timer|/t1                                            9.67 Hz      2.00 ms    1.93%
  syn_node2|sub|/f2|sync                                         4.67 Hz      3.40 ms    1.59%
  syn_node2|sub|/t1                                              9.67 Hz      1.50 ms    1.45%
  syn_node1|service|rq/sv3Request@caller:syn_node5|sub|/t3       6.33 Hz      2.00 ms    1.27%
  syn_node2|client|rr/sv1Reply                                   9.67 Hz      1.00 ms    0.97%
  syn_node4|service|rq/sv1Request@caller:syn_node2|sub|/t1       9.67 Hz      1.00 ms    0.97%
  syn_node1|service|rq/sv3Request@caller:syn_node3|client|rr/s   4.67 Hz      2.00 ms    0.93%
  point_cloud_fusion|sub|lidar_rear/points_filtered|sync         9.67 Hz      0.90 ms    0.87%
  syn_node5|sub|/t3                                              6.33 Hz      1.00 ms    0.63%
  syn_node3|timer|/t3                                            6.33 Hz      1.00 ms    0.63%
  syn_node5|client|rr/sv3Reply                                   6.33 Hz      0.90 ms    0.57%
  syn_node3|client|rr/sv2Reply                                   4.67 Hz      1.20 ms    0.56%
  syn_node2|sub|/clp3                                            6.33 Hz      0.80 ms    0.51%
  syn_node2|sub|/f1|sync                                         9.67 Hz      0.50 ms    0.48%
  syn_node3|timer|rq/sv2Request                                  4.67 Hz      1.00 ms    0.47%
  syn_node4|service|rq/sv2Request@caller:syn_node3|timer|rq/sv   4.67 Hz      1.00 ms    0.47%
  syn_node3|client|rr/sv3Reply                                   4.67 Hz      1.00 ms    0.47%
  syn_node1|sub|/clp3                                            6.33 Hz      0.60 ms    0.38%
greedy 4-core binding:
  cpu0 <- filter_transform_vlp16_front
  cpu2 <- filter_transform_vlp16_rear
  cpu1 <- p2d_ndt_localizer_node
  cpu2 <- point_cloud_fusion
  cpu3 <- syn_node1
  cpu3 <- syn_node2
  cpu3 <- syn_node3
  cpu3 <- syn_node4
  cpu2 <- syn_node5
  cpu3 <- voxel_grid_cloud_node
max core load: 25.93%
`

// TestLoadsTextPin pins the -loads report byte for byte, and checks it
// is the same on every call: the binding is printed by node, not in
// map order.
func TestLoadsTextPin(t *testing.T) {
	d, span := loadsSession(t)
	var first bytes.Buffer
	printLoads(&first, d, span)
	if got := first.String(); got != pinLoads {
		t.Fatalf("-loads text differs from the pin:\n--- got ---\n%s--- want ---\n%s", got, pinLoads)
	}
	for i := 0; i < 20; i++ {
		var again bytes.Buffer
		printLoads(&again, d, span)
		if again.String() != first.String() {
			t.Fatalf("call %d printed a different report:\n%s", i+2, again.String())
		}
	}
}

// runAsMainEnv makes the test binary run main instead of the tests, so
// a test can run it as modelsynth with its own flags.
const runAsMainEnv = "MODELSYNTH_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// modelsynth runs the test binary as modelsynth with args and returns
// its exit code, its standard output and its log (standard error).
func modelsynth(t *testing.T, args ...string) (code int, stdout, log string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runAsMainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, out.String(), errOut.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), out.String(), errOut.String()
	}
	t.Fatal(err)
	return 0, "", ""
}

// oneSessionStore writes a store holding one short session, so a run
// that gets past flag checking synthesizes something.
func oneSessionStore(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	store, err := trace.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := store.WriteSegment("run", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []trace.Event{
		{Time: 1, Seq: 1, Kind: trace.KindCreateNode, PID: 7, Node: "n"},
		{Time: 2, Seq: 2, Kind: trace.KindTimerCBStart, PID: 7},
		{Time: 3, Seq: 3, Kind: trace.KindTimerCall, PID: 7, CBID: 9},
		{Time: 5, Seq: 4, Kind: trace.KindTimerCBEnd, PID: 7},
	} {
		sw.Observe(e)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestRejectsBadInputs checks that modelsynth refuses, with an error
// and a nonzero exit, inputs it used to accept silently, and suggests
// -salvage only for a damaged segment.
func TestRejectsBadInputs(t *testing.T) {
	store := oneSessionStore(t)
	missing := filepath.Join(t.TempDir(), "no", "such", "store")
	dangling := oneSessionStore(t)
	if err := os.Symlink(filepath.Join(dangling, "gone.rtrc"), filepath.Join(dangling, "run-0001.rtrc")); err != nil {
		t.Fatal(err)
	}
	truncated := oneSessionStore(t)
	seg := filepath.Join(truncated, "run-0000.rtrc")
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	const hint = "re-run with -salvage"
	for _, tc := range []struct {
		name   string
		args   []string
		want   string
		absent string // must not appear in the log
	}{
		{"missing-in", []string{"-in", missing}, "no such file or directory", ""},
		{"t1-before-t0", []string{"-in", store, "-t0", "2s", "-t1", "1s"}, "-t1 1s is earlier than -t0 2s", ""},
		{"negative-span", []string{"-in", store, "-loads", "-span", "-1s"}, "-span -1s is negative", ""},
		{"dangling-segment", []string{"-in", dangling}, "no such file or directory", hint},
		{"truncated-segment", []string{"-in", truncated}, hint, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, _, log := modelsynth(t, tc.args...)
			if code == 0 || !strings.Contains(log, tc.want) {
				t.Fatalf("exit %d, log:\n%s\nwant a nonzero exit and %q", code, log, tc.want)
			}
			if tc.absent != "" && strings.Contains(log, tc.absent) {
				t.Fatalf("log:\n%s\nwant no %q", log, tc.absent)
			}
		})
	}
	if _, err := os.Stat(filepath.Dir(filepath.Dir(missing))); !os.IsNotExist(err) {
		t.Fatalf("modelsynth -in created part of the missing path: %v", err)
	}
	if code, _, log := modelsynth(t, "-in", store, "-loads"); code != 0 {
		t.Fatalf("a good store exits %d:\n%s", code, log)
	}
}

// TestBuilderSpanMatchesSpanTracker checks that the synthesis sink's
// event count and span, which modelsynth prints and feeds to -loads,
// are a trace.SpanTracker's count and the first and last event times of
// the same stream, on each read path: a full stream, a query, and a
// salvage over a damaged segment.
func TestBuilderSpanMatchesSpanTracker(t *testing.T) {
	storeDir := t.TempDir()
	store := writeSessionTo(t, storeDir, trace.FormatV2)
	check := func(name string, read func(trace.Sink) error) {
		t.Helper()
		sink := core.NewSynthesizeSink()
		var span trace.SpanTracker
		var f0, l0 sim.Time
		times := trace.SinkFunc(func(e trace.Event) {
			if span.Total() == 0 {
				f0 = e.Time
			}
			l0 = e.Time
		})
		if err := read(trace.MultiSink(sink, times, &span)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := sink.Err(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		f1, l1 := sink.Span()
		if span.Total() < 1000 || sink.EventsFolded() != uint64(span.Total()) || f0 != f1 || l0 != l1 {
			t.Fatalf("%s: sink %d events over [%v, %v]; SpanTracker %d over [%v, %v]",
				name, sink.EventsFolded(), f1, l1, span.Total(), f0, l0)
		}
	}
	check("stream", func(s trace.Sink) error { return store.StreamSession("run", s) })
	check("query", func(s trace.Sink) error {
		_, err := store.QuerySession("run", trace.Filter{T0: sim.Time(300 * sim.Millisecond), T1: sim.Time(2 * sim.Second)}, s)
		return err
	})

	seg := filepath.Join(storeDir, "run-0004.rtrc")
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	check("salvage", func(s trace.Sink) error {
		rep, err := store.SalvageSession("run", s)
		if err == nil && rep.Damaged() != 1 {
			t.Fatalf("salvage found %d damaged segments, want 1", rep.Damaged())
		}
		return err
	})
}

// TestOutputDeterministic runs modelsynth five times over one store with
// every output switched on and requires the same stdout (the -chains and
// -loads reports) and the same -json and -dot files each time: nothing
// it prints or writes may follow map order.
func TestOutputDeterministic(t *testing.T) {
	storeDir := t.TempDir()
	writeSessionTo(t, storeDir, trace.FormatV2)
	var first []string
	for run := 0; run < 5; run++ {
		dir := t.TempDir()
		jsonPath, dotPath := filepath.Join(dir, "model.json"), filepath.Join(dir, "model.dot")
		code, stdout, log := modelsynth(t, "-in", storeDir, "-json", jsonPath, "-dot", dotPath, "-chains", "-loads")
		if code != 0 {
			t.Fatalf("run %d exits %d:\n%s", run, code, log)
		}
		got := []string{stdout}
		for _, p := range []string{jsonPath, dotPath} {
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatalf("run %d: %v", run, err)
			}
			got = append(got, string(b))
		}
		if run == 0 {
			if !strings.Contains(got[0], "computation chains:") || !strings.Contains(got[0], "processor loads:") ||
				len(got[1]) < 1000 || len(got[2]) < 1000 {
				t.Fatalf("outputs implausibly small: %d-byte stdout, %d-byte JSON, %d-byte DOT", len(got[0]), len(got[1]), len(got[2]))
			}
			first = got
			continue
		}
		for i, name := range []string{"stdout", "-json file", "-dot file"} {
			if got[i] != first[i] {
				t.Fatalf("run %d: %s differs from run 0:\n--- got ---\n%s\n--- run 0 ---\n%s", run, name, got[i], first[i])
			}
		}
	}
}
