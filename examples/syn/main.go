// SYN example: build the paper's synthetic application, trace it, and show
// how the framework identifies every scenario of Sec. VI — same-type
// callbacks, mixed nodes, multi-subscriber topics, multi-caller services
// (split into per-caller vertices), and message synchronization (AND
// junction) — plus the ablation against the naive service model.
//
//	go run ./examples/syn
package main

import (
	"fmt"
	"log"
	"strings"

	"github.com/tracesynth/rostracer/internal/analysis"
	"github.com/tracesynth/rostracer/internal/apps"
	"github.com/tracesynth/rostracer/internal/core"
	"github.com/tracesynth/rostracer/internal/harness"
	"github.com/tracesynth/rostracer/internal/rclcpp"
	"github.com/tracesynth/rostracer/internal/sim"
)

func main() {
	b := core.NewModelBuilder()
	if _, err := harness.RunSession(7, 8, 30*sim.Second, true, func(w *rclcpp.World) {
		apps.BuildSYN(w, apps.SYNConfig{})
	}, b); err != nil {
		log.Fatal(err)
	}
	m := b.Finish()
	dag := core.BuildDAG(m)

	fmt.Println("== synthesized SYN model (Fig. 3a) ==")
	fmt.Print(core.Summary(dag))

	fmt.Println("\n== scenario checks ==")
	sv3 := 0
	var and *core.Vertex
	for _, k := range dag.VertexKeys() {
		v := dag.Vertices[k]
		if v.Type == core.CBService && strings.Contains(k, "sv3") {
			sv3++
		}
		if v.IsAnd {
			and = v
		}
	}
	fmt.Printf("  (iv) sv3 called from two callers -> %d service vertices\n", sv3)
	if and != nil {
		fmt.Printf("  (v)  data synchronization -> AND junction in %s, output %v\n", and.Node, and.OutTopics)
	}
	clp3 := 0
	for _, e := range dag.Edges() {
		if e.Topic == "/clp3" {
			clp3++
		}
	}
	fmt.Printf("  (iii) /clp3 subscribed by %d callbacks\n", clp3)

	fmt.Println("\n== ablation: naive single-vertex service model ==")
	naive := core.BuildDAGNaive(m)
	n, spurious := analysis.SpuriousChains(dag, naive)
	fmt.Printf("  naive model introduces %d spurious chains, e.g.:\n", n)
	for i, c := range spurious {
		if i == 2 {
			break
		}
		fmt.Printf("    %s\n", c)
	}

	fmt.Println("\n== DOT ==")
	fmt.Print(core.ToDOT(dag, "SYN"))
}
