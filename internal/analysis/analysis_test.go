package analysis_test

import (
	"strings"
	"testing"

	"github.com/tracesynth/rostracer/internal/analysis"
	"github.com/tracesynth/rostracer/internal/apps"
	"github.com/tracesynth/rostracer/internal/core"
	"github.com/tracesynth/rostracer/internal/rclcpp"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
	"github.com/tracesynth/rostracer/internal/tracers"
)

// traceApp traces build for dur and streams the drained trace into a
// ModelBuilder and any extra sinks.
func traceApp(t *testing.T, seed uint64, cpus int, build func(*rclcpp.World), dur sim.Duration, sinks ...trace.Sink) *core.Model {
	t.Helper()
	w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: cpus, Seed: seed})
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
	build(w)
	w.Run(dur)
	mb := core.NewModelBuilder()
	if err := b.StreamTo(trace.MultiSink(append(sinks, mb)...)); err != nil {
		t.Fatal(err)
	}
	return mb.Finish()
}

func TestChainsOfAVP(t *testing.T) {
	m := traceApp(t, 1, 8, func(w *rclcpp.World) { apps.BuildAVP(w, apps.AVPConfig{}) }, 20*sim.Second)
	d := core.BuildDAG(m)
	chains := analysis.Chains(d, 0)
	// Two chains (rear and front), both converging through the AND
	// junction to the localizer.
	if len(chains) != 2 {
		t.Fatalf("chains = %d: %v", len(chains), chains)
	}
	for _, c := range chains {
		if len(c.Keys) != 5 { // filter -> sync -> AND -> voxel -> localizer
			t.Errorf("chain length %d: %s", len(c.Keys), c)
		}
		last := d.Vertices[c.Keys[len(c.Keys)-1]]
		if last.Node != apps.NodeLocalizer {
			t.Errorf("chain does not end at localizer: %s", c)
		}
	}
}

func TestChainLatenciesAVPFrontChain(t *testing.T) {
	m := traceApp(t, 2, 8, func(w *rclcpp.World) { apps.BuildAVP(w, apps.AVPConfig{}) }, 20*sim.Second)
	stats, dropped := analysis.ChainLatencies(m, []string{
		apps.TopicFrontRaw, apps.TopicFrontFiltered, apps.TopicFused,
		apps.TopicDownsampled,
	})
	if stats.Count < 100 {
		t.Fatalf("only %d complete flows (dropped %d)", stats.Count, dropped)
	}
	// Sanity: latency at least the front filter ET plus downstream costs,
	// and bounded by a few sensor periods.
	if stats.Min < 25*sim.Millisecond {
		t.Errorf("min latency %v implausibly small", stats.Min)
	}
	if stats.Max > 500*sim.Millisecond {
		t.Errorf("max latency %v implausibly large", stats.Max)
	}
	if !(stats.Min <= stats.Mean && stats.Mean <= stats.Max) {
		t.Errorf("stats ordering broken: %+v", stats)
	}
}

func TestLoadsReportAVPFrontFilterShare(t *testing.T) {
	span := 30 * sim.Second
	m := traceApp(t, 3, 8, func(w *rclcpp.World) { apps.BuildAVP(w, apps.AVPConfig{}) }, span)
	d := core.BuildDAG(m)
	loads := analysis.Loads(d, span)
	if len(loads) == 0 {
		t.Fatal("no loads")
	}
	// The heaviest callback is the front filter at ~27% (Table II: 27 ms
	// at 10 Hz).
	top := loads[0]
	if !strings.Contains(top.Key, apps.NodeFilterFront) {
		t.Fatalf("heaviest callback is %s", top.Key)
	}
	if top.Utilization < 0.22 || top.Utilization > 0.32 {
		t.Fatalf("front filter load = %.3f, want ~0.27", top.Utilization)
	}
	if top.RateHz < 9 || top.RateHz > 11 {
		t.Fatalf("front filter rate = %.2f Hz", top.RateHz)
	}

	nl := analysis.NodeLoads(loads)
	b := analysis.GreedyBinding(nl, 2)
	if b.MaxLoad >= sumLoads(nl) {
		t.Fatal("binding did not spread load at all")
	}
	if len(b.CPUOf) != len(nl) {
		t.Fatal("binding missing nodes")
	}
	// LPT onto 2 CPUs must be no worse than 4/3 OPT >= half the total.
	if b.MaxLoad < sumLoads(nl)/2 {
		t.Fatalf("max load %.3f below theoretical minimum %.3f", b.MaxLoad, sumLoads(nl)/2)
	}
}

func sumLoads(nl map[string]float64) float64 {
	s := 0.0
	for _, v := range nl {
		s += v
	}
	return s
}

func TestChainWCETBound(t *testing.T) {
	m := traceApp(t, 4, 8, func(w *rclcpp.World) { apps.BuildAVP(w, apps.AVPConfig{}) }, 10*sim.Second)
	d := core.BuildDAG(m)
	chains := analysis.Chains(d, 0)
	if len(chains) == 0 {
		t.Fatal("no chains")
	}
	for _, c := range chains {
		bound := analysis.ChainWCETBound(d, c)
		// The bound must dominate the sum of chain WCETs.
		var sumWCET sim.Duration
		for _, k := range c.Keys {
			sumWCET += d.Vertices[k].Stats.WCET()
		}
		if bound < sumWCET {
			t.Fatalf("bound %v < chain WCET sum %v", bound, sumWCET)
		}
	}
}

// TestServiceSplittingAvoidsSpuriousChains is the E8 ablation: the naive
// single-vertex service model must create chains that do not exist, and
// the paper's split model must not.
func TestServiceSplittingAvoidsSpuriousChains(t *testing.T) {
	m := traceApp(t, 5, 8, func(w *rclcpp.World) { apps.BuildSYN(w, apps.SYNConfig{}) }, 10*sim.Second)
	proper := core.BuildDAG(m)
	naive := core.BuildDAGNaive(m)

	nSpurious, spurious := analysis.SpuriousChains(proper, naive)
	if nSpurious == 0 {
		t.Fatal("naive service model produced no spurious chains; ablation broken")
	}
	// The paper's concrete example: a chain passing from SC3's side of
	// sv3 to CL4 (node3's client) — crossing callers.
	foundCross := false
	for _, c := range spurious {
		s := c.String()
		if strings.Contains(s, "syn_node5|sub") && strings.Contains(s, "syn_node3|client|rr/sv3Reply") {
			foundCross = true
		}
	}
	if !foundCross {
		t.Errorf("expected the SC3->SV3->CL4-style crossing among spurious chains: %v", spurious)
	}
	// And the proper model has none of the naive-only chains.
	if n, _ := analysis.SpuriousChains(naive, proper); n != 0 {
		// Chains present in proper but not naive are fine (finer splits),
		// so this direction can be non-zero; no assertion. Kept for
		// documentation.
		_ = n
	}
}

func TestChainsRespectsMax(t *testing.T) {
	m := traceApp(t, 6, 8, func(w *rclcpp.World) { apps.BuildSYN(w, apps.SYNConfig{}) }, 5*sim.Second)
	d := core.BuildDAG(m)
	all := analysis.Chains(d, 0)
	if len(all) < 3 {
		t.Fatalf("SYN chains = %d", len(all))
	}
	capped := analysis.Chains(d, 2)
	if len(capped) != 2 {
		t.Fatalf("capped chains = %d", len(capped))
	}
}
