package rostracer_bench

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// callerAllowlist names the exported functions and methods under
// internal/ that may stay without a production caller, each with the
// reason. Names are package.Func or package.Type.Method.
var callerAllowlist = map[string]string{
	"apps.BuildRandomPipeline": "test support: the random pipelines the sched, apps and tracers property tests run",
	"maincheck.Deterministic":  "test support: the determinism check each example's main test runs",
	"rclcpp.World.RecordTruth": "ground-truth oracle the msgfilters and rclcpp tests compare the synthesized model against",
	"rclcpp.World.Truth":       "ground-truth oracle the msgfilters and rclcpp tests compare the synthesized model against",
	"trace.WriteBinary":        "writes the v1 test inputs until the both-v1 workload is retired",
	"ebpf.Assembler.AddReg":    asmReason,
	"ebpf.Assembler.AndImm":    asmReason,
	"ebpf.Assembler.DivImm":    asmReason,
	"ebpf.Assembler.DivReg":    asmReason,
	"ebpf.Assembler.Ja":        asmReason,
	"ebpf.Assembler.JeqReg":    asmReason,
	"ebpf.Assembler.JgeImm":    asmReason,
	"ebpf.Assembler.JgtImm":    asmReason,
	"ebpf.Assembler.JleImm":    asmReason,
	"ebpf.Assembler.JltImm":    asmReason,
	"ebpf.Assembler.JneReg":    asmReason,
	"ebpf.Assembler.LshImm":    asmReason,
	"ebpf.Assembler.ModImm":    asmReason,
	"ebpf.Assembler.MulImm":    asmReason,
	"ebpf.Assembler.OrImm":     asmReason,
	"ebpf.Assembler.RshImm":    asmReason,
	"ebpf.Assembler.SubImm":    asmReason,
	"ebpf.Assembler.SubReg":    asmReason,
	"ebpf.Assembler.XorReg":    asmReason,
}

const asmReason = "an instruction only test programs emit; the assembler covers the instruction set the verifier accepts"

// TestProductionCallers fails on any exported function or method under
// internal/ that no non-test file of the module or of the nested
// perfbench module references, unless it satisfies an interface or is
// on callerAllowlist; it also fails on allowlist entries that went
// stale.
func TestProductionCallers(t *testing.T) {
	start := time.Now()
	res, err := findCallerless(".", "perfbench")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.problems(callerAllowlist) {
		t.Error(p)
	}
	t.Logf("checked in %v", time.Since(start).Round(time.Millisecond))
}

// TestProductionCallersFixture runs the check over testdata/callers, a
// module whose nested module is the only caller of one function.
func TestProductionCallersFixture(t *testing.T) {
	res, err := findCallerless("testdata/callers", "testdata/callers/nested")
	if err != nil {
		t.Fatal(err)
	}
	got := slices.Sorted(maps.Keys(res.callerless))
	want := []string{"lib.Allowed", "lib.Recursive", "lib.Unused"}
	if !slices.Equal(got, want) {
		t.Fatalf("callerless = %v, want %v", got, want)
	}
	probs := res.problems(map[string]string{
		"lib.Allowed": "kept",
		"lib.Used":    "now has a caller",
		"lib.Gone":    "no longer declared",
	})
	wantProbs := []string{
		"lib.Recursive", "lib.Unused", // callerless and not allowlisted
		"lib.Gone", "lib.Used", // stale entries
	}
	if len(probs) != len(wantProbs) {
		t.Fatalf("problems = %q, want one each for %v", probs, wantProbs)
	}
	for i, name := range wantProbs {
		if !strings.Contains(probs[i], name) {
			t.Errorf("problem %d = %q, want it to name %s", i, probs[i], name)
		}
	}
}

// callerResult is what findCallerless saw: every exported function and
// method under internal/, and the subset without a production caller.
type callerResult struct {
	declared   map[string]bool
	callerless map[string]token.Position
}

// problems lists the callerless names not on allow, then the allow
// entries that are stale, each sorted by name.
func (r callerResult) problems(allow map[string]string) []string {
	var out []string
	for _, name := range slices.Sorted(maps.Keys(r.callerless)) {
		if _, ok := allow[name]; !ok {
			out = append(out, fmt.Sprintf("%s: exported %s has no production caller; delete it or allowlist it with a reason", r.callerless[name], name))
		}
	}
	for _, name := range slices.Sorted(maps.Keys(allow)) {
		if !r.declared[name] {
			out = append(out, fmt.Sprintf("stale allowlist entry %s: no longer declared", name))
		} else if _, ok := r.callerless[name]; !ok {
			out = append(out, fmt.Sprintf("stale allowlist entry %s: it has a production caller", name))
		}
	}
	return out
}

// callerChecker type-checks the non-test files of a set of modules,
// resolving imports between them by module path and the standard
// library from source.
type callerChecker struct {
	fset   *token.FileSet
	mods   []goModule // longest path first
	std    types.Importer
	pkgs   map[string]*types.Package
	infos  []*types.Info
	ifaces []*types.Interface // of every package checked or imported
	decls  map[*types.Func]exported
}

type goModule struct{ path, dir string }

// exported is an exported function or method under internal/.
type exported struct {
	name string // package.Func or package.Type.Method
	decl *ast.FuncDecl
}

// findCallerless checks every package of the modules rooted at dirs.
func findCallerless(dirs ...string) (callerResult, error) {
	fset := token.NewFileSet()
	c := &callerChecker{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		pkgs:  map[string]*types.Package{},
		decls: map[*types.Func]exported{},
	}
	for _, dir := range dirs {
		mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err != nil {
			return callerResult{}, err
		}
		line, _, _ := strings.Cut(string(mod), "\n")
		path, ok := strings.CutPrefix(strings.TrimSpace(line), "module ")
		if !ok {
			return callerResult{}, fmt.Errorf("%s/go.mod: no module line first", dir)
		}
		c.mods = append(c.mods, goModule{strings.TrimSpace(path), dir})
	}
	sort.Slice(c.mods, func(i, j int) bool { return len(c.mods[i].path) > len(c.mods[j].path) })
	for _, m := range c.mods {
		err := filepath.WalkDir(m.dir, func(p string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if p != m.dir {
				if base := d.Name(); base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
					return filepath.SkipDir // a nested module is checked as its own root
				}
			}
			rel, _ := filepath.Rel(m.dir, p)
			_, err = c.Import(strings.TrimSuffix(m.path+"/"+filepath.ToSlash(rel), "/."))
			return err
		})
		if err != nil {
			return callerResult{}, err
		}
	}
	return c.result(), nil
}

// Import implements types.Importer: a module package is type-checked
// from its directory, anything else is the standard library's.
func (c *callerChecker) Import(path string) (*types.Package, error) {
	if p, ok := c.pkgs[path]; ok {
		return p, nil
	}
	var p *types.Package
	var err error
	if dir, ok := c.dirOf(path); ok {
		p, err = c.check(path, dir)
	} else {
		p, err = c.std.Import(path)
	}
	if p == nil {
		return nil, err
	}
	c.pkgs[path] = p
	for _, name := range p.Scope().Names() {
		if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
			n, named := tn.Type().(*types.Named)
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && named && n.TypeParams() == nil {
				c.ifaces = append(c.ifaces, it)
			}
		}
	}
	return p, err
}

// dirOf maps a module package path to its directory.
func (c *callerChecker) dirOf(path string) (string, bool) {
	for _, m := range c.mods {
		if rest, ok := strings.CutPrefix(path, m.path); ok && (rest == "" || rest[0] == '/') {
			return filepath.Join(m.dir, filepath.FromSlash(rest)), true
		}
	}
	return "", false
}

// check type-checks the non-test files of the package in dir and, under
// internal/, records its exported functions and methods. A directory
// without Go files yields nil.
func (c *callerChecker) check(path, dir string) (*types.Package, error) {
	bp, err := build.ImportDir(dir, 0)
	if _, ok := err.(*build.NoGoError); ok {
		return nil, nil
	} else if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: c}).Check(path, c.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	c.infos = append(c.infos, info)
	if !strings.Contains(path+"/", "/internal/") {
		return pkg, nil
	}
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() {
				fn := info.Defs[fd.Name].(*types.Func)
				name := pkg.Name() + "." + fn.Name()
				if t := recvNamed(fn); t != nil {
					name = pkg.Name() + "." + t.Obj().Name() + "." + fn.Name()
				}
				c.decls[fn] = exported{name, fd}
			}
		}
	}
	return pkg, nil
}

// result matches the declarations against every use outside their own
// bodies, then exempts the methods that satisfy an interface.
func (c *callerChecker) result() callerResult {
	called := map[*types.Func]bool{}
	for _, info := range c.infos {
		for id, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				fn = fn.Origin()
				if d, ok := c.decls[fn]; ok && (id.Pos() < d.decl.Pos() || id.Pos() >= d.decl.End()) {
					called[fn] = true
				}
			}
		}
	}
	c.ifaces = append(c.ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	res := callerResult{declared: map[string]bool{}, callerless: map[string]token.Position{}}
	for fn, d := range c.decls {
		res.declared[d.name] = true
		if !called[fn] && !c.satisfiesInterface(fn) {
			res.callerless[d.name] = c.fset.Position(fn.Pos())
		}
	}
	return res
}

// satisfiesInterface reports whether fn is a method of a type that, as
// a value or a pointer, implements an interface with a method of fn's
// name.
func (c *callerChecker) satisfiesInterface(fn *types.Func) bool {
	t := recvNamed(fn)
	if t == nil {
		return false
	}
	for _, it := range c.ifaces {
		if obj, _, _ := types.LookupFieldOrMethod(it, false, nil, fn.Name()); obj != nil &&
			(types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
			return true
		}
	}
	return false
}

// recvNamed returns the named type of fn's receiver, or nil for a
// function.
func recvNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}
