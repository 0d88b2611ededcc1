// Package pipeline runs one traced session the way the paper deploys
// its tracers (Fig. 2): boot the simulated host, attach TR_IN, TR_RT and
// TR_KN, build the application, stop TR_IN once every node exists, then
// advance virtual time window by window and, after each window, drain
// every per-CPU ring in (Time, Seq) order into the session's fan-out —
// the trace store, a live synthesis service, a metrics sink and
// whatever sinks the caller adds. Every window is placed by one
// tracers.DrainScheduler, whose single walk over the rings also reads
// the window's backlog and loss gauges.
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

	// Duration is the traced virtual time, drained in windows of at
	// most Period (0 = one window over Duration), the last one cut short
	// at Duration. MinPeriod 0 fixes every window at Period; MinPeriod >
	// 0 lets the drain scheduler plan each window in [MinPeriod, Period]
	// from the ring gauges.
	Duration          sim.Duration
	Period, MinPeriod sim.Duration

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

	// The ring gauges read before the drain (the worst single ring's
	// backlog and its CPU, the records lost to overruns during the
	// window) and the next period planned from them.
	tracers.DrainObservation

	Segment  service.SegmentResult // the writer's segment close (zero without a Writer)
	Firing   []*metrics.RuleState  // rules firing at this window's evaluation
	Snapshot *core.Snapshot        // the snapshot cut after this window, if any
}

// Report is what a session hands back at shutdown.
type Report struct {
	Windows int
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
	maxP := cfg.Period
	if maxP <= 0 {
		maxP = cfg.Duration
	}
	minP := cfg.MinPeriod
	if minP <= 0 {
		minP = maxP
	}
	s := &Session{World: w, Bundle: b, Fanout: trace.NewIsolatingMultiSink(), cfg: cfg,
		sched: tracers.NewDrainScheduler(b, minP, maxP)}
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
	return nil
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
	for elapsed := sim.Duration(0); elapsed < s.cfg.Duration; {
		win := Window{Index: rep.Windows, Step: min(s.sched.Interval(), s.cfg.Duration-elapsed)}
		s.World.Run(win.Step)
		elapsed += win.Step
		win.Elapsed = elapsed
		// The gauges go first: the drain clears them.
		win.DrainObservation = s.sched.Observe(win.Step)

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
		w.Close()
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
