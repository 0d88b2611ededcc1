package core

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// referenceEdges filters a deduplicated edge set independently of the
// DAG's sorted cache, as the oracle for Edges and InEdges.
func referenceEdges(set map[Edge]struct{}, keep func(Edge) bool) []Edge {
	var out []Edge
	for e := range set {
		if keep(e) {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return edgeLess(out[i], out[j]) })
	return out
}

// TestDAGAdjacencyIndexConsistency interleaves AddEdge calls (including
// duplicates) with queries and checks Edges and InEdges always agree with
// a brute-force filter over the inserted set.
func TestDAGAdjacencyIndexConsistency(t *testing.T) {
	d := NewDAG()
	vertices := []string{"a", "b", "c", "d", "e"}
	uniq := make(map[Edge]struct{})
	check := func(step string) {
		t.Helper()
		if got, want := d.Edges(), referenceEdges(uniq, func(Edge) bool { return true }); !slices.Equal(got, want) {
			t.Fatalf("%s: Edges() = %v, want %v", step, got, want)
		}
		for _, v := range vertices {
			if got, want := d.InEdges(v), referenceEdges(uniq, func(e Edge) bool { return e.To == v }); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: InEdges(%s) = %v, want %v", step, v, got, want)
			}
		}
	}

	check("empty")
	// Deterministic pseudo-random interleaving of inserts and duplicates.
	state := uint64(0x9e3779b97f4a7c15)
	next := func(n int) int {
		state ^= state >> 12
		state ^= state << 25
		state ^= state >> 27
		return int((state * 0x2545f4914f6cdd1d) >> 33 % uint64(n))
	}
	var inserted []Edge
	for i := 0; i < 200; i++ {
		var e Edge
		if len(inserted) > 0 && i%5 == 4 {
			e = inserted[next(len(inserted))] // duplicate insert
		} else {
			e = Edge{
				From:  vertices[next(len(vertices))],
				To:    vertices[next(len(vertices))],
				Topic: fmt.Sprintf("/t%d", next(7)),
			}
		}
		d.AddEdge(e)
		inserted = append(inserted, e)
		uniq[e] = struct{}{}
		if i%17 == 0 {
			check(fmt.Sprintf("step %d", i))
		}
	}
	check("final")

	if got, want := d.Edges(), referenceEdges(uniq, func(Edge) bool { return true }); !reflect.DeepEqual(got, want) {
		t.Fatalf("Edges() = %v, want %v", got, want)
	}
}

// TestEdgesCacheInvalidation checks the sorted-edge cache is rebuilt after
// AddEdge and that repeated calls return a consistent sorted view.
func TestEdgesCacheInvalidation(t *testing.T) {
	d := NewDAG()
	d.AddEdge(Edge{From: "b", To: "c", Topic: "/1"})
	d.AddEdge(Edge{From: "a", To: "b", Topic: "/1"})
	first := d.Edges()
	if len(first) != 2 || first[0].From != "a" {
		t.Fatalf("edges not sorted: %v", first)
	}
	if again := d.Edges(); &again[0] != &first[0] {
		t.Fatal("Edges() did not reuse the cache between AddEdge calls")
	}
	d.AddEdge(Edge{From: "0", To: "a", Topic: "/1"})
	after := d.Edges()
	if len(after) != 3 || after[0].From != "0" {
		t.Fatalf("cache not invalidated by AddEdge: %v", after)
	}
	// Duplicate insertion must not invalidate the cache.
	d.AddEdge(Edge{From: "0", To: "a", Topic: "/1"})
	if again := d.Edges(); &again[0] != &after[0] {
		t.Fatal("duplicate AddEdge invalidated the cache")
	}
}

// TestVertexByLabelSubstringOrder checks the direct-scan implementation
// still returns the first match in key order.
func TestVertexByLabelSubstringOrder(t *testing.T) {
	d := NewDAG()
	for _, k := range []string{"node_z|sub|/t", "node_a|sub|/t", "node_m|timer|", "other"} {
		d.Vertices[k] = &Vertex{Key: k}
	}
	if v := d.VertexByLabelSubstring("|sub|"); v == nil || v.Key != "node_a|sub|/t" {
		t.Fatalf("got %+v, want node_a|sub|/t", v)
	}
	if v := d.VertexByLabelSubstring("node_m"); v == nil || v.Key != "node_m|timer|" {
		t.Fatalf("got %+v, want node_m|timer|", v)
	}
	if v := d.VertexByLabelSubstring("missing"); v != nil {
		t.Fatalf("got %+v, want nil", v)
	}
}
