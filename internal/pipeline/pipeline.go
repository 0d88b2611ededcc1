// Package pipeline runs one traced session the way the paper deploys
// its tracers (Fig. 2): boot the simulated host, attach TR_IN, TR_RT and
// TR_KN, build the application, stop TR_IN once every node exists, then
// advance virtual time window by window and, after each window, drain
// every per-CPU ring in (Time, Seq) order into the session's fan-out —
// the trace store, a live synthesis service, a metrics sink and
// whatever sinks the caller adds.
//
// A session is built in two steps: New constructs the world, the bundle
// and the fan-out without attaching anything, so the caller can wire
// fault hooks and add sinks; Run then boots the tracers and drives the
// loop, handing each window and the shutdown report back to the caller.
package pipeline

import (
	"github.com/tracesynth/rostracer/internal/core"
	"github.com/tracesynth/rostracer/internal/metrics"
	"github.com/tracesynth/rostracer/internal/rclcpp"
	"github.com/tracesynth/rostracer/internal/service"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
	"github.com/tracesynth/rostracer/internal/tracers"
)

// Config describes one session.
type Config struct {
	Seed  uint64
	CPUs  int
	Build func(*rclcpp.World) // creates the traced application
	// UnfilteredKernel turns off TR_KN's ROS 2 PID filter.
	UnfilteredKernel bool
	// RingCapacity bounds every per-CPU ring (0 = unbounded).
	RingCapacity int

	// Duration is the traced virtual time. The drain instants come from
	// the first of these that is set:
	//   - Drains: n windows ending at Duration*k/n for k = 1..n;
	//   - Policy: a DrainScheduler plans each window from the ring
	//     gauges, the last one cut short at Duration;
	//   - Period: fixed windows, the last one cut short at Duration
	//     (0 = one window).
	Duration sim.Duration
	Drains   int
	Policy   *tracers.DrainPolicy
	Period   sim.Duration

	// Writer persists the stream: it is the fan-out's first sink
	// ("store"), and each drain is one of its segments.
	Writer *service.SessionWriter
	// SnapshotEvery > 0 puts a live synthesis service ("snapshot") on the
	// fan-out and cuts a model snapshot each time this much more virtual
	// time has elapsed, plus a final one at shutdown if events arrived
	// after the last cut.
	SnapshotEvery sim.Duration
	// Metrics puts a metrics sink ("metrics") on the fan-out and receives
	// the pipeline gauges after every window and at shutdown, when
	// AlertRules are evaluated over it.
	Metrics    *metrics.Registry
	AlertRules []metrics.AlertRule
}

// Window reports one drain window.
type Window struct {
	Index   int          // 0-based
	Elapsed sim.Duration // virtual time at the drain
	Step    sim.Duration // the window's length
	Next    sim.Duration // the planned next period: Step unless a scheduler plans it

	// Ring gauges read before the drain: the worst single ring's backlog
	// and its CPU, and the records lost to overruns during the window.
	MaxPending, MaxPendingCPU int
	LostDelta                 uint64

	Segment  service.SegmentResult // the writer's segment close (zero without a Writer)
	Firing   []*metrics.RuleState  // rules firing at this window's evaluation
	Snapshot *core.Snapshot        // the snapshot cut after this window, if any
}

// Report is what a session hands back at shutdown.
type Report struct {
	Windows int
	// Persisted counts the events the writer made durable: every segment
	// close plus its final Close.
	Persisted int
	// Final is the snapshot cut at shutdown, when events arrived after
	// the last cut.
	Final    *core.Snapshot
	CloseErr error // the fan-out's first flush-close failure
	Detached []trace.Detachment
}

// Session is one traced session.
type Session struct {
	World  *rclcpp.World
	Bundle *tracers.Bundle
	// Fanout receives every drained event. Sinks added between New and
	// Run follow the store and precede the snapshot and metrics sinks.
	Fanout *trace.IsolatingMultiSink
	Alerts *metrics.Alerts // nil without Config.Metrics

	cfg       Config
	sched     *tracers.DrainScheduler
	snaps     *core.SnapshotService
	snapEvery sim.Duration
	nextSnap  sim.Duration
	cutEvents uint64 // events observed at the last cut
	msink     *metrics.Sink
	pm        *metrics.PipelineMetrics
}

// New constructs the session's world, bundle and fan-out. No probe is
// attached yet: the caller may add sinks and fault hooks before Run.
func New(cfg Config) (*Session, error) {
	w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: cfg.CPUs, Seed: cfg.Seed})
	b, err := tracers.NewBundleCapacity(w.Runtime(), cfg.RingCapacity)
	if err != nil {
		return nil, err
	}
	s := &Session{World: w, Bundle: b, Fanout: trace.NewIsolatingMultiSink(), cfg: cfg}
	if cfg.Writer != nil {
		s.Fanout.Add("store", cfg.Writer)
	}
	if cfg.SnapshotEvery > 0 {
		s.snaps = core.NewSnapshotService()
		s.snapEvery, s.nextSnap = cfg.SnapshotEvery, cfg.SnapshotEvery
	}
	if cfg.Metrics != nil {
		s.msink = metrics.NewSink(cfg.Metrics)
		s.pm = metrics.NewPipelineMetrics(cfg.Metrics)
		s.Alerts = metrics.NewAlerts(cfg.Metrics, cfg.AlertRules)
	}
	return s, nil
}

// StopSnapshots ends the snapshot cuts, the final one included. The
// service keeps folding events, so the synthesis gauge stays live.
func (s *Session) StopSnapshots() { s.snapEvery = 0 }

// start is the boot sequence of Fig. 2.
func (s *Session) start() error {
	w, b := s.World, s.Bundle
	tracers.BridgeSched(w.Machine(), w.Runtime())
	if err := b.StartInit(); err != nil {
		return err
	}
	if err := b.StartRT(); err != nil {
		return err
	}
	if err := b.StartKernel(!s.cfg.UnfilteredKernel); err != nil {
		return err
	}
	s.cfg.Build(w)
	// TR_IN has seen every node creation; it can stop now.
	b.StopInit()
	if s.snaps != nil {
		s.Fanout.Add("snapshot", s.snaps)
	}
	if s.msink != nil {
		s.Fanout.Add("metrics", s.msink)
	}
	if s.cfg.Policy != nil {
		s.sched = tracers.NewDrainScheduler(b, *s.cfg.Policy)
	}
	return nil
}

// nextDrain returns the absolute instant of drain k (0-based), or false
// once the session is over.
func (s *Session) nextDrain(k int, elapsed sim.Duration) (sim.Duration, bool) {
	d := s.cfg.Duration
	if n := s.cfg.Drains; n > 0 {
		return d * sim.Duration(k+1) / sim.Duration(n), k < n
	}
	if elapsed >= d {
		return 0, false
	}
	step := s.cfg.Period
	if s.sched != nil {
		step = s.sched.Interval()
	}
	if rest := d - elapsed; step <= 0 || step > rest {
		step = rest
	}
	return elapsed + step, true
}

// Run boots the tracers and drives the session to its end. onWindow,
// when set, runs after every window; returning false ends the session
// there, with the same shutdown as a session that ran to Duration. An
// error is a boot or decode failure; the writer and the fan-out are
// closed before it is returned.
func (s *Session) Run(onWindow func(Window) bool) (Report, error) {
	var rep Report
	if err := s.start(); err != nil {
		return rep, s.abort(err)
	}
	var elapsed sim.Duration
	var prevLost uint64
	for {
		at, ok := s.nextDrain(rep.Windows, elapsed)
		if !ok {
			break
		}
		win := Window{Index: rep.Windows, Elapsed: at, Step: at - elapsed}
		s.World.Run(win.Step)
		elapsed = at

		// The gauges go first: the drain clears them.
		win.Next = win.Step
		win.MaxPending, win.MaxPendingCPU = s.Bundle.MaxRingPending()
		if s.sched != nil {
			obs := s.sched.Observe(win.Step)
			win.MaxPending, win.MaxPendingCPU, win.Next = obs.MaxPending, obs.MaxPendingCPU, obs.Next
		}
		lost := s.Bundle.Lost()
		win.LostDelta, prevLost = lost-prevLost, lost

		w := s.cfg.Writer
		if w != nil {
			w.BeginSegment()
		}
		if err := s.Bundle.StreamTo(s.Fanout); err != nil {
			// Only a decode failure surfaces here (the sinks are
			// isolated); the writer still flushes what it got.
			return rep, s.abort(err)
		}
		if w != nil {
			win.Segment = w.EndSegment()
		}
		rep.Windows++
		rep.Persisted += win.Segment.Persisted

		if s.pm != nil {
			s.updateGauges()
			s.pm.UpdateDrain(int64(win.Next), rep.Windows, 0)
			win.Firing = s.Alerts.Evaluate()
		}
		if s.snapEvery > 0 && elapsed >= s.nextSnap {
			win.Snapshot = s.cut()
			for s.nextSnap <= elapsed {
				s.nextSnap += s.snapEvery
			}
		}
		if onWindow != nil && !onWindow(win) {
			break
		}
	}

	// Shutdown flushes everything still open: the writer's last segment
	// and spill, a final snapshot, and every attached sink.
	if w := s.cfg.Writer; w != nil {
		rep.Persisted += w.Close().Persisted
	}
	if s.snapEvery > 0 && s.snaps.EventsObserved() > s.cutEvents {
		rep.Final = s.cut()
	}
	rep.CloseErr = s.Fanout.Close()
	rep.Detached = s.Fanout.Detached()
	if s.pm != nil {
		// The close-time ledgers and one last evaluation round.
		s.updateGauges()
		s.Alerts.Evaluate()
	}
	return rep, nil
}

// abort closes the writer and the fan-out of a failed session.
func (s *Session) abort(err error) error {
	if s.cfg.Writer != nil {
		s.cfg.Writer.Close()
	}
	s.Fanout.Close()
	return err
}

func (s *Session) cut() *core.Snapshot {
	snap := s.snaps.Snapshot()
	s.cutEvents = snap.Events
	return &snap
}

// updateGauges snapshots every ledger the session owns into the
// pipeline gauges.
func (s *Session) updateGauges() {
	s.pm.UpdateBundle(s.Bundle)
	if s.cfg.Writer != nil {
		s.pm.UpdateWriter(s.cfg.Writer)
	}
	s.pm.UpdateIntern()
	s.pm.UpdateSinks(s.Fanout)
	if s.snaps != nil {
		s.pm.UpdateSynthesis(s.snaps)
	}
}
