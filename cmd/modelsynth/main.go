// Command modelsynth reads traces from a trace database and synthesizes
// the timing model: Algorithm 1 per node, Algorithm 2 for execution times,
// and the DAG-construction rules of Sec. IV. Per-session DAGs are merged
// (the paper's experiment methodology).
//
// Usage:
//
//	modelsynth -in ./traces [-dot model.dot] [-json model.json] [-session-prefix avp]
//	modelsynth -in ./traces -t0 2s -t1 8s -kinds sched_switch,P6
//
// With -salvage, damaged sessions degrade instead of aborting: each
// segment streams every complete record up to its damage point and the
// per-segment salvage report (events recovered, bytes dropped, damage
// cause) is printed. -fsck only scans and classifies damage, without
// synthesizing.
//
// -t0/-t1/-kinds/-node restrict synthesis to a slice of each session
// without reading the rest: on v2 segments the store's footer index
// seeks straight to the overlapping blocks (v1 segments fall back to a
// filtered scan). The per-session block-skip statistics are printed.
// Filters use the strict read path and cannot combine with -salvage.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strings"

	"github.com/tracesynth/rostracer/internal/analysis"
	"github.com/tracesynth/rostracer/internal/core"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("modelsynth: ")

	in := flag.String("in", "./traces", "trace database directory")
	dotOut := flag.String("dot", "", "write Graphviz DOT to this file")
	jsonOut := flag.String("json", "", "write JSON model to this file")
	prefix := flag.String("session-prefix", "", "only use sessions whose name has this prefix")
	chains := flag.Bool("chains", false, "print computation chains and WCET bounds")
	loads := flag.Bool("loads", false, "print processor loads and a 4-core greedy binding")
	span := flag.Duration("span", 0, "observation span per session for -loads (0 = infer)")
	salvage := flag.Bool("salvage", false, "recover damaged sessions: stream every complete record up to each segment's damage point")
	fsck := flag.Bool("fsck", false, "scan the store and classify segment damage, then exit (nonzero if any)")
	t0 := flag.Duration("t0", 0, "only synthesize from events at or after this virtual time (indexed seek on v2 segments)")
	t1 := flag.Duration("t1", 0, "only synthesize from events at or before this virtual time (0 = unbounded)")
	kindList := flag.String("kinds", "", "comma-separated event kinds to synthesize from, e.g. sched_switch,P6,execute_timer:entry (empty = all)")
	node := flag.String("node", "", "only synthesize from events of this node (blocks without it are skipped via the v2 string tables)")
	flag.Parse()

	filter := trace.Filter{
		T0:   sim.Time(t0.Nanoseconds()),
		T1:   sim.Time(t1.Nanoseconds()),
		Node: *node,
	}
	filtering := *t0 != 0 || *t1 != 0 || *kindList != "" || *node != ""
	for _, name := range strings.Split(*kindList, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		k, ok := trace.ParseKind(name)
		if !ok {
			log.Fatalf("unknown kind %q in -kinds (spellings: %q, %q, %q)",
				name, trace.KindTakeInt, "P6", "rmw_take_int")
		}
		filter.Kinds = append(filter.Kinds, k)
	}
	if filtering && (*salvage || *fsck) {
		log.Fatal("-t0/-t1/-kinds/-node use the strict indexed read path and cannot combine with -salvage or -fsck")
	}
	if *t1 != 0 && *t1 < *t0 {
		log.Fatalf("-t1 %v is earlier than -t0 %v: the window is empty", *t1, *t0)
	}
	if *span < 0 {
		log.Fatalf("-span %v is negative", *span)
	}
	// NewStore creates a missing directory, as a tracer writing a new
	// store needs; a reader must not.
	if fi, err := os.Stat(*in); err != nil {
		log.Fatal(err)
	} else if !fi.IsDir() {
		log.Fatalf("%s is not a directory", *in)
	}

	store, err := trace.NewStore(*in)
	if err != nil {
		log.Fatal(err)
	}
	if *fsck {
		rep, err := store.Fsck()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(rep.String())
		if rep.Damaged() > 0 {
			os.Exit(1)
		}
		return
	}
	sessions, err := store.Sessions()
	if err != nil {
		log.Fatal(err)
	}
	var dags []*core.DAG
	var inferredSpan sim.Duration
	degraded := false
	for _, s := range sessions {
		if *prefix != "" && !strings.HasPrefix(s, *prefix) {
			continue
		}
		// Each session streams off disk straight into the incremental
		// synthesis sink: segment records decode one at a time, the k-way
		// merge holds one event per segment, and sched events fold online —
		// a multi-GB session synthesizes without ever materializing. The
		// sink also counts the events and tracks their span.
		sink := core.NewSynthesizeSink()
		if *salvage {
			rep, err := store.SalvageSession(s, sink)
			if err != nil {
				log.Fatalf("salvaging %s: %v", s, err)
			}
			if rep.Damaged() > 0 {
				degraded = true
			}
			log.Print(rep.String())
		} else if filtering {
			stats, err := store.QuerySession(s, filter, sink)
			if err != nil {
				log.Fatalf("querying %s: %v", s, err)
			}
			log.Printf("session %s: %d/%d blocks read (%d skipped by index), %d segments scanned, %d records decoded, %d matched",
				s, stats.BlocksRead, stats.BlocksTotal, stats.BlocksSkipped,
				stats.Scans, stats.RecordsDecoded, stats.RecordsMatched)
		} else if err := store.StreamSession(s, sink); err != nil {
			if trace.IsDamage(err) {
				log.Fatalf("loading %s: %v (re-run with -salvage to recover the undamaged prefix)", s, err)
			}
			log.Fatalf("loading %s: %v", s, err)
		}
		if err := sink.Err(); err != nil {
			log.Fatalf("synthesizing %s: %v", s, err)
		}
		first, last := sink.Span()
		inferredSpan += last.Sub(first)
		dags = append(dags, sink.DAG())
		log.Printf("session %s: %d events", s, sink.EventsFolded())
	}
	if len(dags) == 0 {
		log.Fatal("no sessions found")
	}
	d := mergeSessions(dags)

	fmt.Print(core.Summary(d))

	if *dotOut != "" {
		if err := os.WriteFile(*dotOut, []byte(core.ToDOT(d, "synthesized timing model")), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("DOT written to %s", *dotOut)
	}
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := core.WriteJSON(f, d); err != nil {
			f.Close()
			log.Fatal(err)
		}
		// A failed close means the model file is short on disk even though
		// every write "succeeded" — that must not pass silently.
		if err := f.Close(); err != nil {
			log.Fatalf("closing %s: %v", *jsonOut, err)
		}
		log.Printf("JSON written to %s", *jsonOut)
	}
	if *chains {
		printChains(os.Stdout, d)
	}
	if *loads {
		obsSpan := sim.Duration(*span)
		if obsSpan == 0 {
			obsSpan = inferredSpan
		}
		printLoads(os.Stdout, d, obsSpan)
	}
	if degraded {
		// The model above was synthesized from a damaged store: every
		// complete record was used, but some events are gone. Exit nonzero
		// so scripted pipelines notice.
		log.Print("WARNING: one or more sessions were salvaged from damage; the model covers surviving events only")
		os.Exit(1)
	}
}

// mergeSessions merges the per-session DAGs into the model. A single
// session's DAG already is the model, so it is used as is rather than
// deep-copied through MergeDAGs.
func mergeSessions(dags []*core.DAG) *core.DAG {
	if len(dags) == 1 {
		return dags[0]
	}
	return core.MergeDAGs(dags...)
}

// printChains writes the -chains report: every computation chain with
// its WCET bound.
func printChains(w io.Writer, d *core.DAG) {
	fmt.Fprintln(w, "\ncomputation chains:")
	for _, c := range analysis.Chains(d, 0) {
		bound := analysis.ChainWCETBound(d, c)
		fmt.Fprintf(w, "  [bound %.2f ms] %s\n", bound.Milliseconds(), renderChain(d, c))
	}
}

func renderChain(d *core.DAG, c analysis.Chain) string {
	var parts []string
	for _, k := range c.Keys {
		parts = append(parts, d.Vertices[k].Label())
	}
	return strings.Join(parts, " -> ")
}

// printLoads writes the -loads report: per-vertex processor loads over
// span, then the greedy 4-core node binding, sorted by node.
func printLoads(w io.Writer, d *core.DAG, span sim.Duration) {
	fmt.Fprintln(w, "\nprocessor loads:")
	ls := analysis.Loads(d, span)
	for _, l := range ls {
		fmt.Fprintf(w, "  %-60.60s %6.2f Hz  %8.2f ms  %6.2f%%\n",
			l.Key, l.RateHz, l.ACET.Milliseconds(), 100*l.Utilization)
	}
	b := analysis.GreedyBinding(analysis.NodeLoads(ls), 4)
	nodes := make([]string, 0, len(b.CPUOf))
	for node := range b.CPUOf {
		nodes = append(nodes, node)
	}
	sort.Strings(nodes)
	fmt.Fprintln(w, "greedy 4-core binding:")
	for _, node := range nodes {
		fmt.Fprintf(w, "  cpu%d <- %s\n", b.CPUOf[node], node)
	}
	fmt.Fprintf(w, "max core load: %.2f%%\n", 100*b.MaxLoad)
}
