package rostracer_bench

import (
	"go/build"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// forbiddenImports names the packages no production binary may link,
// each with what it would bring back: a binary whose import closure
// holds none of them links statically and starts without the dynamic
// loader (see "Process start-up" in docs/PERFORMANCE.md).
var forbiddenImports = map[string]string{
	"net":         "its cgo resolver, which links libc dynamically",
	"net/http":    "the TLS, x509 and HTTP/2 package inits",
	"os/user":     "its cgo lookups, which link libc dynamically",
	"plugin":      "the dynamic loader",
	"runtime/cgo": "dynamic linking against libc",
}

const modulePath = "github.com/tracesynth/rostracer"

// TestProductionBinariesStatic walks the import closure of every main
// package under cmd/ and examples/ and fails on any forbidden import,
// naming the chain of imports that reaches it.
func TestProductionBinariesStatic(t *testing.T) {
	mains, err := filepath.Glob("cmd/*")
	if err != nil {
		t.Fatal(err)
	}
	examples, err := filepath.Glob("examples/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range append(mains, examples...) {
		via, err := importClosure(dir)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		// A walk that missed the standard library would pass vacuously.
		if _, ok := via["syscall"]; !ok {
			t.Fatalf("%s: import closure of %d packages lacks syscall", dir, len(via))
		}
		for _, pkg := range slices.Sorted(maps.Keys(forbiddenImports)) {
			if _, ok := via[pkg]; !ok {
				continue
			}
			chain := []string{pkg}
			for p := via[pkg]; p != dir; p = via[p] {
				chain = append(chain, p)
			}
			slices.Reverse(chain)
			t.Errorf("%s imports %s (%s), which brings back %s", dir, pkg, strings.Join(chain, " -> "), forbiddenImports[pkg])
		}
	}
}

// importClosure returns every package the non-test files of the package
// in dir import, directly or not, each mapped to the package that first
// imported it (dir itself for its direct imports). Packages of this
// module resolve to their directories, all others to GOROOT; nothing is
// fetched.
func importClosure(dir string) (map[string]string, error) {
	ctx := build.Default
	root, err := ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	via := make(map[string]string)
	type edge struct{ path, srcDir string }
	var queue []edge
	add := func(p *build.Package, from string) {
		srcDir := p.Dir // resolves GOROOT's vendored packages
		if !p.Goroot {
			srcDir = ""
		}
		for _, imp := range p.Imports {
			if imp == "C" {
				imp = "runtime/cgo" // what a package using cgo links
			}
			if _, seen := via[imp]; !seen {
				via[imp] = from
				queue = append(queue, edge{imp, srcDir})
			}
		}
	}
	add(root, dir)
	for len(queue) > 0 {
		e := queue[0]
		queue = queue[1:]
		var p *build.Package
		if rel, ok := strings.CutPrefix(e.path, modulePath+"/"); ok {
			p, err = ctx.ImportDir(filepath.FromSlash(rel), 0)
		} else {
			p, err = ctx.Import(e.path, e.srcDir, 0)
		}
		if err != nil {
			return nil, err
		}
		add(p, e.path)
	}
	return via, nil
}
