package harness

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/tracesynth/rostracer/internal/core"
	"github.com/tracesynth/rostracer/internal/faultinject"
	"github.com/tracesynth/rostracer/internal/metrics"
	"github.com/tracesynth/rostracer/internal/pipeline"
	"github.com/tracesynth/rostracer/internal/service"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
)

// chaosDrains is the drain-window count of the chaos session.
const chaosDrains = 8

// chaosRingCapacity bounds the per-CPU rings so injected overflow bursts
// have realistic company (genuine capacity overruns count into the same
// lost ledger).
const chaosRingCapacity = 2048

// chaosSpill is the session writer's bounded spill: small enough that
// two disk-down windows overflow it, so drop accounting is exercised.
const chaosSpill = 512

// chaosBlockRecords bounds v2 blocks in the chaos store: small enough
// that every damaged segment spans many blocks, so Phase B's tears land
// inside the data region and actually lose records.
const chaosBlockRecords = 64

// chaosDetachWindow is the drain window (1-based) at whose start the
// auxiliary JSONL sink's writer is yanked, so the sink detaches during
// that window's drain — the deterministic pin for the sink-detached
// alert: it must not fire in windows 1..chaosDetachWindow-1 and must
// first fire exactly at chaosDetachWindow.
const chaosDetachWindow = 4

// yankableWriter discards writes until yanked, then fails them all —
// the auxiliary sink's scripted disk.
type yankableWriter struct {
	yanked bool
}

func (y *yankableWriter) Write(p []byte) (int, error) {
	if y.yanked {
		return 0, fmt.Errorf("chaos: aux sink disk yanked")
	}
	return len(p), nil
}

// ChaosExperiment (E13) runs the full drain -> store -> synthesis
// pipeline under a seeded fault plan on all three loss layers at once —
// DDS transport faults (drop / duplicate / delay), forced perf-ring
// overruns, and a scripted disk (ENOSPC mid-segment, a dead-disk spell
// spanning two windows, a short write near the end) — and asserts exact
// accounting rather than mere survival:
//
//	emitted == persisted + ring-lost + spill-dropped
//
// with persisted verified by reading the store back (strict decode), and
// fsck confirming no partial record ever reached disk. Phase B then
// damages the surviving store deterministically (a torn tail, a stomped
// frame) and asserts salvage recovers exactly the records before each
// damage point — and that model synthesis over the salvage stream is
// byte-identical to batch synthesis over the same surviving events.
//
// The whole experiment runs once per segment format (v1 and v2): the
// fault plan and workload are seeded identically, so the two runs also
// cross-check each other — both must persist the same events, which
// makes the v1/v2 size ratio a direct compression measurement.
func ChaosExperiment(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	var sb strings.Builder
	ok := true
	var notes []string
	persisted := map[trace.Format]uint64{}
	bytesOnDisk := map[trace.Format]int64{}
	for _, format := range []trace.Format{trace.FormatV1, trace.FormatV2} {
		run, err := chaosFormatRun(cfg, format)
		if err != nil {
			return Result{}, err
		}
		fmt.Fprintf(&sb, "=== format %s ===\n%s", format, run.text)
		ok = ok && run.ok
		for _, n := range run.notes {
			notes = append(notes, fmt.Sprintf("[%s] %s", format, n))
		}
		persisted[format] = run.persisted
		bytesOnDisk[format] = run.storeBytes
	}
	// Same seed, same plan: both formats trace the same workload, so the
	// per-event storage cost compares compression on live data. (Persisted
	// counts differ slightly — error-detection timing shifts with segment
	// size, moving a few spill events across the drop boundary — so the
	// metric is bytes per event, not raw store size.)
	if persisted[trace.FormatV1] > 0 && persisted[trace.FormatV2] > 0 {
		v1 := float64(bytesOnDisk[trace.FormatV1]) / float64(persisted[trace.FormatV1])
		v2 := float64(bytesOnDisk[trace.FormatV2]) / float64(persisted[trace.FormatV2])
		ratio := v1 / v2
		fmt.Fprintf(&sb, "compression: %.1f B/event (v1) vs %.1f B/event (v2) — %.1fx\n", v1, v2, ratio)
		if ratio < 3 {
			ok = false
			notes = append(notes, fmt.Sprintf("v2 compression ratio %.2fx below the 3x floor", ratio))
		}
	}
	return Result{ID: "chaos",
		Title: "Fault injection: exact accounting under transport, ring, and disk faults (v1 + v2)",
		Text:  sb.String(), OK: ok, Notes: notes}, nil
}

// chaosRun is one per-format pass of the experiment.
type chaosRun struct {
	text       string
	ok         bool
	notes      []string
	persisted  uint64
	storeBytes int64 // segment bytes surviving before Phase B damage
}

func chaosFormatRun(cfg Config, format trace.Format) (chaosRun, error) {
	dir, err := os.MkdirTemp("", "rtrc-chaos-")
	if err != nil {
		return chaosRun{}, err
	}
	defer os.RemoveAll(dir)

	store, err := trace.NewStore(dir)
	if err != nil {
		return chaosRun{}, err
	}
	store.Format = format
	store.BlockRecords = chaosBlockRecords

	// The fault plan. Disk script, by file open: window 1's segment hits
	// ENOSPC after 8 KB (rotate + replay); window 3's segment and every
	// retry for two windows is a dead disk (spill, then overflow drops);
	// the last window's segment takes a short write (rotate + replay).
	failAll := []faultinject.WriteFault{{Kind: faultinject.WriteFailAll}}
	disk := faultinject.NewDisk(
		nil, // window 0: healthy
		[]faultinject.WriteFault{{Kind: faultinject.WriteFailAfter, N: 8 << 10}}, // window 1
		nil,              // window 1 rotation target
		nil,              // window 2
		failAll,          // window 3: down...
		failAll, failAll, // ...and both recovery attempts fail
		failAll, failAll, // window 4: still down
		nil, // window 5: disk back; replay spill
		nil, // window 6
		[]faultinject.WriteFault{{Kind: faultinject.WriteShortAt, N: 3}}, // window 7
	)
	store.WrapWriter = disk.Wrap
	ring := faultinject.NewRingFault(cfg.Seed+7, 0.01,
		faultinject.Burst{AtOp: 2000, Len: 300})
	transport := &faultinject.Transport{
		DropProb: 0.02, DupProb: 0.02, DelayProb: 0.05,
		ExtraDelay: 2 * sim.Millisecond,
	}
	plan := faultinject.Plan{Disk: disk, Ring: ring, Transport: transport}

	var sb strings.Builder
	run := chaosRun{ok: true}
	flunk := func(format string, args ...interface{}) {
		run.ok = false
		run.notes = append(run.notes, fmt.Sprintf(format, args...))
	}

	// Self-observability under fault load: the drain fans out to the
	// store, a metrics sink, and an auxiliary JSONL sink whose writer is
	// yanked at a scripted window. After every window the registry is
	// scraped through the same exposition path the HTTP endpoint serves,
	// and the scrape must stay parseable with every counter monotone —
	// fault windows included.
	const session = "chaos"
	sleeps := 0
	writer := service.NewSessionWriter(store, session, service.Policy{
		MaxAttempts:   2,
		SpillCapacity: chaosSpill,
		Sleep:         func(time.Duration) { sleeps++ },
	})
	reg := metrics.NewRegistry()
	ps, err := pipeline.New(pipeline.Config{
		Seed: cfg.Seed, CPUs: cfg.CPUs, Build: BuildBoth(1), RingCapacity: chaosRingCapacity,
		Duration: cfg.Duration, Period: cfg.Duration / chaosDrains,
		Writer: writer, Metrics: reg, AlertRules: metrics.DefaultAlertRules(),
	})
	if err != nil {
		return chaosRun{}, err
	}
	// Every fault layer is wired to its hook before the first emission,
	// so the emitted count covers the whole session.
	w, b := ps.World, ps.Bundle
	b.SetRingFault(plan.Ring.Hook())
	w.Domain().Fault = plan.Transport
	aux := &yankableWriter{}
	ps.Fanout.Add("aux-jsonl", trace.NewJSONLSink(aux))

	var prevScrape *metrics.ParsedExposition
	scrapeCheck := func(window string) {
		parsed, err := metrics.ParseExposition(reg.Exposition())
		if err != nil {
			flunk("%s: /metrics exposition unparseable: %v", window, err)
			return
		}
		if viol := parsed.MonotoneViolations(prevScrape); len(viol) > 0 {
			flunk("%s: counters decreased: %s", window, strings.Join(viol, "; "))
		}
		prevScrape = parsed
	}

	drained, err := ps.Run(func(win pipeline.Window) bool {
		k := win.Index + 1
		scrapeCheck(fmt.Sprintf("window %d", k))
		if k+1 == chaosDetachWindow {
			aux.yanked = true // before the next window's drain
		}
		return true
	})
	if err != nil {
		return chaosRun{}, err
	}
	if drained.CloseErr != nil {
		flunk("fan-out close: %v", drained.CloseErr)
	}
	scrapeCheck("post-close")

	stats := writer.Stats()
	run.persisted = stats.Persisted
	emitted := b.Emitted()
	lost := b.Lost()
	ts := w.Domain().FaultStats()

	// The aux sink must have detached during (exactly) the yank window,
	// and the sink-detached alert must pin that: silent before, first
	// firing at chaosDetachWindow.
	if det := drained.Detached; len(det) != 1 || det[0].Name != "aux-jsonl" {
		flunk("detachments = %+v, want exactly the yanked aux-jsonl sink", det)
	}
	var detachRule *metrics.RuleState
	for _, st := range ps.Alerts.States() {
		if st.Rule.Name == "sink-detached" {
			detachRule = st
		}
	}
	if detachRule == nil {
		flunk("sink-detached rule missing from the default rule set")
	} else if !detachRule.Fired || detachRule.FiredAt != chaosDetachWindow {
		flunk("sink-detached alert fired at evaluation %d, want exactly window %d (state %+v)",
			detachRule.FiredAt, chaosDetachWindow, detachRule)
	}
	for _, st := range ps.Alerts.States() {
		if st.Rule.Name == "store-dropped" && !st.Fired {
			flunk("store-dropped alert never fired despite %d dropped events", stats.Dropped)
		}
	}

	fmt.Fprintf(&sb, "workload: SYN + AVP, %v, %d CPUs; %d drain windows, ring capacity %d, spill %d\n",
		cfg.Duration, cfg.CPUs, chaosDrains, chaosRingCapacity, chaosSpill)
	fmt.Fprintf(&sb, "transport faults: %d dropped, %d duplicated, %d delayed\n",
		ts.Dropped, ts.Duplicated, ts.Delayed)
	fmt.Fprintf(&sb, "ring faults:      %d forced lost of %d emissions (total lost %d)\n",
		plan.Ring.Drops(), emitted, lost)
	fmt.Fprintf(&sb, "disk faults:      %d file opens for %d windows; %d rotations, %d retries (%d backoffs), %d down rounds\n",
		plan.Disk.Opens(), chaosDrains, stats.Rotations, stats.Retries, sleeps, stats.Down)
	fmt.Fprintf(&sb, "ledger:           emitted %d == persisted %d + ring-lost %d + spill-dropped %d\n",
		emitted, stats.Persisted, lost, stats.Dropped)
	if detachRule != nil {
		fmt.Fprintf(&sb, "metrics:          %d scrapes parseable and monotone under faults; sink-detached alert first fired at window %d (aux writer yanked at %d)\n",
			chaosDrains+1, detachRule.FiredAt, chaosDetachWindow)
	}

	// Exact accounting: every emission is persisted, counted lost on a
	// ring, or counted dropped by the writer — nothing vanishes.
	if emitted != stats.Persisted+lost+stats.Dropped {
		flunk("ledger broken: emitted %d != persisted %d + lost %d + dropped %d",
			emitted, stats.Persisted, lost, stats.Dropped)
	}
	if writer.Pending() != 0 {
		flunk("writer closed with %d events pending", writer.Pending())
	}
	// Every fault layer must actually have fired, or the run proves
	// nothing.
	if ts.Dropped == 0 || ts.Duplicated == 0 || ts.Delayed == 0 {
		flunk("transport fault idle: %+v", ts)
	}
	if plan.Ring.Drops() == 0 {
		flunk("ring fault idle")
	}
	if stats.Rotations < 2 || stats.Down < 2 || stats.Dropped == 0 {
		flunk("disk degradation too mild: %d rotations, %d down rounds, %d dropped",
			stats.Rotations, stats.Down, stats.Dropped)
	}

	// The store must read back strictly — the persisted count is real and
	// no partial record ever survived a failed segment.
	var kc trace.KindCounter
	if err := store.StreamSession(session, &kc); err != nil {
		flunk("strict readback failed: %v", err)
	} else if uint64(kc.Total()) != stats.Persisted {
		flunk("readback %d events, writer persisted %d", kc.Total(), stats.Persisted)
	}
	fsck, err := store.Fsck()
	if err != nil {
		return chaosRun{}, err
	}
	if !fsck.Clean() {
		flunk("fsck found %d damaged segments in the surviving store", fsck.Damaged())
	}
	fmt.Fprintf(&sb, "readback:         %d events (strict decode), fsck clean over %d segments\n",
		kc.Total(), stats.Segments)

	// Phase B: damage the surviving store deterministically and salvage.
	segs, err := filepath.Glob(filepath.Join(dir, session+"-*.rtrc"))
	if err != nil {
		return chaosRun{}, err
	}
	sort.Strings(segs)
	type segInfo struct {
		path  string
		total int // records
	}
	var candidates []segInfo
	for _, p := range segs {
		data, err := os.ReadFile(p)
		if err != nil {
			return chaosRun{}, err
		}
		run.storeBytes += int64(len(data))
		total, _, err := walkSegment(data, -1)
		if err != nil {
			return chaosRun{}, err
		}
		if total >= 4 {
			candidates = append(candidates, segInfo{path: p, total: total})
		}
	}
	if len(candidates) < 2 {
		flunk("need 2 segments with >= 4 records to damage, have %d", len(candidates))
	}
	wantSalvaged := int(stats.Persisted)
	// expect holds, per damaged file, what salvage must report: computed
	// by running the plain salvage reader over the damaged bytes, so the
	// store-level pass below is cross-checked against an independent
	// single-stream read of the same files.
	expect := map[string]trace.SegmentSalvage{}
	var torn, corrupt segInfo
	if len(candidates) >= 2 {
		// Tear the tail off the first candidate two bytes past a frame
		// boundary (v1: a record boundary, v2: a block boundary), and stomp
		// 0xFFFFFFFF over a frame boundary of the last one (v1: an
		// implausible record length, v2: an unknown frame tag).
		torn, corrupt = candidates[0], candidates[len(candidates)-1]
		boundary, err := segmentBoundary(torn.path, torn.total/2)
		if err != nil {
			return chaosRun{}, err
		}
		if err := os.Truncate(torn.path, boundary+2); err != nil {
			return chaosRun{}, err
		}
		boundary, err = segmentBoundary(corrupt.path, corrupt.total/2)
		if err != nil {
			return chaosRun{}, err
		}
		f, err := os.OpenFile(corrupt.path, os.O_WRONLY, 0)
		if err != nil {
			return chaosRun{}, err
		}
		if _, err := f.WriteAt([]byte{0xff, 0xff, 0xff, 0xff}, boundary); err != nil {
			f.Close()
			return chaosRun{}, err
		}
		if err := f.Close(); err != nil {
			return chaosRun{}, err
		}
		for _, si := range []segInfo{torn, corrupt} {
			pred := trace.SalvageReader(bytes.NewReader(mustRead(si.path)), nil)
			if !pred.Damaged {
				flunk("damage to %s not detected by a direct read", filepath.Base(si.path))
			}
			if pred.Events == 0 || pred.Events >= si.total {
				flunk("damage to %s lost no records (%d of %d recovered)",
					filepath.Base(si.path), pred.Events, si.total)
			}
			wantSalvaged -= si.total - pred.Events
			expect[filepath.Base(si.path)] = pred
		}
		if expect[filepath.Base(torn.path)].Cause != "truncated" {
			flunk("torn segment classified %q, want truncated", expect[filepath.Base(torn.path)].Cause)
		}
		if expect[filepath.Base(corrupt.path)].Cause != "corrupt" {
			flunk("stomped segment classified %q, want corrupt", expect[filepath.Base(corrupt.path)].Cause)
		}
		fmt.Fprintf(&sb, "damage:           tore %s (%d/%d records survive), corrupted %s (%d/%d)\n",
			filepath.Base(torn.path), expect[filepath.Base(torn.path)].Events, torn.total,
			filepath.Base(corrupt.path), expect[filepath.Base(corrupt.path)].Events, corrupt.total)
	}

	// Salvage must recover exactly the records before each damage point,
	// classify both damage causes, and feed synthesis the same stream a
	// batch pass over the surviving events would see.
	salvSink := core.NewSynthesizeSink()
	var collected []trace.Event
	rep, err := store.SalvageSession(session, trace.MultiSink(salvSink,
		trace.SinkFunc(func(e trace.Event) { collected = append(collected, e) })))
	if err != nil {
		return chaosRun{}, err
	}
	fmt.Fprint(&sb, rep.String())
	if rep.Events() != wantSalvaged || len(collected) != wantSalvaged {
		flunk("salvage recovered %d events (collected %d), want %d",
			rep.Events(), len(collected), wantSalvaged)
	}
	if rep.Damaged() != 2 {
		flunk("salvage report: %d damaged segments, want 2", rep.Damaged())
	}
	for _, s := range rep.Segments {
		pred, damaged := expect[s.Name]
		if !damaged {
			if s.Damaged {
				flunk("undamaged segment %s reported damaged: %s", s.Name, s.Cause)
			}
			continue
		}
		size := int64(len(mustRead(filepath.Join(dir, s.Name))))
		if s.Cause != pred.Cause || s.Events != pred.Events ||
			s.BytesRecovered != pred.BytesRecovered || s.BytesDropped != size-pred.BytesRecovered {
			flunk("damaged segment report disagrees with direct read:\n  store: %+v\n  direct: %+v", s, pred)
		}
	}
	fsck2, err := store.Fsck()
	if err != nil {
		return chaosRun{}, err
	}
	if fsck2.Damaged() != 2 {
		flunk("post-damage fsck found %d damaged segments, want 2", fsck2.Damaged())
	}

	// Streaming salvage synthesis == batch synthesis over the survivors.
	batchSink := core.NewSynthesizeSink()
	for _, e := range collected {
		batchSink.Observe(e)
	}
	salvSummary := core.Summary(salvSink.DAG())
	batchSummary := core.Summary(batchSink.DAG())
	if salvSummary != batchSummary {
		flunk("salvage-stream synthesis diverges from batch synthesis over the same events")
	}
	fmt.Fprintf(&sb, "synthesis over salvage stream: %d vertices / %d edges, byte-identical to batch\n",
		len(salvSink.DAG().Vertices), len(salvSink.DAG().Edges()))

	run.text = sb.String()
	return run, nil
}

// walkSegment walks a segment's records with the production cursor. With
// stopAt < 0 it returns the record count; with stopAt >= 0 it also
// returns the byte offset of the frame boundary at or after record
// stopAt (for v1 that is the record's own boundary; for v2 it is the end
// of the block holding the record, BytesConsumed being block-granular).
func walkSegment(data []byte, stopAt int) (total int, boundary int64, err error) {
	fc := trace.NewFileCursor(bytes.NewReader(data))
	for {
		_, ok, err := fc.Next()
		if err != nil {
			return total, boundary, err
		}
		if !ok {
			break
		}
		total++
		if total == stopAt {
			boundary = fc.BytesConsumed()
		}
	}
	if stopAt < 0 || boundary > 0 {
		return total, boundary, nil
	}
	return total, boundary, fmt.Errorf("chaos: segment has %d records, want boundary after %d", total, stopAt)
}

// segmentBoundary returns walkSegment's boundary for an on-disk segment.
func segmentBoundary(path string, stopAt int) (int64, error) {
	_, boundary, err := walkSegment(mustRead(path), stopAt)
	return boundary, err
}

// mustRead re-reads a segment the experiment already read once; the
// second read cannot meaningfully fail on a file we just held.
func mustRead(path string) []byte {
	data, err := os.ReadFile(path)
	if err != nil {
		panic(err)
	}
	return data
}
