package caladrius_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testOnly names the user of every function and exported package-level
// variable under internal/ that the programs (cmd/, examples/ and the
// benchmark module) cannot reach, so only tests use it. An entry is
// allowed for three kinds of declaration:
// a seam another package's tests drive, an item of PAPER.md's inventory
// kept for the paper's sake, and the pproftest package, which exists to
// support tests. Anything else is deleted, or moved into a _test.go
// file beside the test that uses it.
var testOnly = map[string]string{
	// PAPER.md inventory row 1: the instance-level models (Eqs. 1–3,
	// 13) that the component and topology models are built from.
	"core.InstanceModel.Input":          "PAPER.md row 1: Eq. 1, instance input rate",
	"core.InstanceModel.Output":         "PAPER.md row 1: Eq. 2, instance output rate",
	"core.InstanceModel.OutputMulti":    "PAPER.md row 1: Eq. 3, per-stream instance output",
	"core.InstanceModel.Inverse":        "PAPER.md row 1: Eq. 13, source rate for a target output",
	"core.InstanceModel.Saturated":      "PAPER.md row 1: the saturation test behind Eqs. 1–3",
	"core.ComponentModel.InverseOutput": "PAPER.md row 1: Eq. 13 at component level",

	// PAPER.md inventory row 2: the multi-topology Cluster with the
	// update command and its dry-run mode.
	"heron.NewCluster":                  "PAPER.md row 2: Cluster",
	"heron.Cluster.DB":                  "PAPER.md row 2: Cluster",
	"heron.Cluster.Submit":              "PAPER.md row 2: Cluster",
	"heron.Cluster.Kill":                "PAPER.md row 2: Cluster",
	"heron.Cluster.Topologies":          "PAPER.md row 2: Cluster",
	"heron.Cluster.Info":                "PAPER.md row 2: Cluster",
	"heron.Cluster.Elapsed":             "PAPER.md row 2: Cluster",
	"heron.Cluster.Run":                 "PAPER.md row 2: Cluster",
	"heron.Cluster.Update":              "PAPER.md row 2: Cluster update, incl. dry-run",
	"heron.Simulation.Elapsed":          "heron.Cluster.Elapsed and Cluster.Update (PAPER.md row 2)",
	"topology.Topology.WithParallelism": "heron.Cluster.Update (PAPER.md row 2); internal/tracker TestUpdateBumpsVersion",

	// Seams other packages' tests drive.
	"heron.Simulation.SetRouteAlpha":        "internal/audit TestClosedLoopAccuracyDrift",
	"heron.Simulation.Totals":               "internal/chaos invariant suite (assertConservation)",
	"heron.ZipfKeys.Weights":                "internal/core TestBiasedFieldsGroupingModel (Eq. 11)",
	"heron.ExplicitKeys.Weights":            "internal/core TestCalibrateTopologyInputShares",
	"tracker.Tracker.Update":                "internal/api TestTrackerUpdateEvictsExactlyChangedTopology",
	"tracker.Tracker.Remove":                "internal/api TestTrackerRemoveEvictsEntry",
	"tracker.Tracker.notify":                "tracker.Tracker.Update and Remove",
	"tsdb.DB.SeriesCount":                   "internal/telemetry TestScrapeHistogramBucketsAndQuantiles",
	"topology.PackingPlan.InstanceCount":    "internal/heron TestClusterUpdateDryRun",
	"topology.Builder.AddBoltWithResources": "internal/heron TestOOMRestartsUnderMemoryPressure",
	"workload.StepRate":                     "internal/api and cmd/calctl test deployments, internal/heron TestSimulatorEventTelemetry",

	// A package that exists to support tests.
	"profiler/pproftest": "internal/api and cmd/calctl profiler tests",
}

// TestEveryFunctionNamesItsUser type-checks the module from source and
// marks every function and variable reachable from the programs. A
// function or exported package-level variable nothing reaches and
// testOnly does not list fails the test, and so does an entry for one
// that is reachable or gone.
func TestEveryFunctionNamesItsUser(t *testing.T) {
	l := newLoader(t)
	var roots []*pkg
	for _, dir := range l.dirs("cmd", "examples") {
		roots = append(roots, l.load(dir))
	}
	roots = append(roots, l.load("benchmark"))
	for _, dir := range l.dirs("internal") {
		l.load(dir)
	}

	r := newReach(l.ordered)
	for _, p := range roots {
		for _, f := range p.files {
			for _, d := range f.Decls {
				r.walk(p, d)
			}
		}
	}
	for _, p := range importClosure(roots, l) {
		r.markInits(p)
	}
	r.run()

	var funcs, vars, lines int
	got := map[string]bool{}
	unreached := func(p *pkg, name string, pos token.Pos) {
		got[name] = true
		if testOnly[name] == "" && testOnly[p.key] == "" {
			t.Errorf("%s (%s) is reachable only from tests: delete it, move it into a _test.go file, or name its user in testOnly",
				name, l.fset.Position(pos))
		}
	}
	for _, p := range l.ordered {
		if !strings.HasPrefix(p.rel, "internal/") {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Name.Name == "init" || r.marked[p.info.Defs[d.Name]] {
						continue
					}
					funcs++
					first := d.Pos()
					if d.Doc != nil {
						first = d.Doc.Pos()
					}
					lines += l.fset.Position(d.End()).Line - l.fset.Position(first).Line + 1
					unreached(p, funcKey(p, d), d.Pos())
				case *ast.GenDecl:
					if d.Tok != token.VAR {
						continue
					}
					for _, s := range d.Specs {
						for _, n := range s.(*ast.ValueSpec).Names {
							if n.IsExported() && !r.marked[p.info.Defs[n]] {
								vars++
								unreached(p, p.key+"."+n.Name, n.Pos())
							}
						}
					}
				}
			}
		}
	}
	for name := range testOnly {
		if !got[name] && !hasPrefixKey(got, name+".") {
			t.Errorf("testOnly lists %s, which a program reaches or which no longer exists", name)
		}
	}
	t.Logf("test-only functions: %d (%d lines), variables: %d", funcs, lines, vars)
}

func hasPrefixKey(m map[string]bool, prefix string) bool {
	for k := range m {
		if strings.HasPrefix(k, prefix) {
			return true
		}
	}
	return false
}

// funcKey spells a function as pkg.Func or pkg.Type.Method, pkg being
// its directory below internal/.
func funcKey(p *pkg, fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return p.key + "." + fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	for {
		switch e := recv.(type) {
		case *ast.StarExpr:
			recv = e.X
			continue
		case *ast.IndexExpr:
			recv = e.X
			continue
		case *ast.IndexListExpr:
			recv = e.X
			continue
		}
		break
	}
	return p.key + "." + recv.(*ast.Ident).Name + "." + fd.Name.Name
}

// pkg is one type-checked directory of non-test files.
type pkg struct {
	rel   string // slash path below the repository root
	key   string // rel without its internal/ prefix
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// loader type-checks the module's packages from source and the
// standard library from export data.
type loader struct {
	t       *testing.T
	fset    *token.FileSet
	std     types.Importer
	byPath  map[string]*pkg
	ordered []*pkg
}

func newLoader(t *testing.T) *loader {
	fset := token.NewFileSet()
	return &loader{t: t, fset: fset, std: importer.ForCompiler(fset, "gc", nil), byPath: map[string]*pkg{}}
}

// dirs lists every directory below the given top-level ones that holds
// a non-test Go file.
func (l *loader) dirs(tops ...string) []string {
	var out []string
	for _, top := range tops {
		err := filepath.WalkDir(top, func(path string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if names, _ := filepath.Glob(filepath.Join(path, "*.go")); len(sourceFiles(names)) > 0 {
				out = append(out, filepath.ToSlash(path))
			}
			return nil
		})
		if err != nil {
			l.t.Fatal(err)
		}
	}
	return out
}

func sourceFiles(names []string) []string {
	var out []string
	for _, n := range names {
		ok, err := build.Default.MatchFile(filepath.Dir(n), filepath.Base(n))
		if err == nil && ok && !strings.HasSuffix(n, "_test.go") {
			out = append(out, n)
		}
	}
	return out
}

func (l *loader) Import(path string) (*types.Package, error) {
	if rel, ok := strings.CutPrefix(path, "caladrius/"); ok {
		return l.load(rel).types, nil
	}
	return l.std.Import(path)
}

func (l *loader) load(rel string) *pkg {
	if p := l.byPath[rel]; p != nil {
		return p
	}
	names, _ := filepath.Glob(filepath.Join(filepath.FromSlash(rel), "*.go"))
	p := &pkg{rel: rel, key: strings.TrimPrefix(rel, "internal/")}
	for _, n := range sourceFiles(names) {
		f, err := parser.ParseFile(l.fset, n, nil, parser.ParseComments)
		if err != nil {
			l.t.Fatal(err)
		}
		p.files = append(p.files, f)
	}
	p.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	tp, err := (&types.Config{Importer: l}).Check("caladrius/"+rel, l.fset, p.files, p.info)
	if err != nil {
		l.t.Fatalf("type-check %s: %v", rel, err)
	}
	p.types = tp
	l.byPath[rel] = p
	l.ordered = append(l.ordered, p)
	return p
}

// importClosure is every module package the roots import, the roots
// included.
func importClosure(roots []*pkg, l *loader) []*pkg {
	seen := map[*types.Package]bool{}
	var out []*pkg
	var visit func(tp *types.Package)
	visit = func(tp *types.Package) {
		rel, ok := strings.CutPrefix(tp.Path(), "caladrius/")
		if !ok || seen[tp] {
			return
		}
		seen[tp] = true
		out = append(out, l.byPath[rel])
		for _, imp := range tp.Imports() {
			visit(imp)
		}
	}
	for _, p := range roots {
		visit(p.types)
	}
	return out
}

// reach marks what the programs can execute. A reference to a function,
// variable, constant or type marks its declaration, whose body is then
// walked in turn. A method is also marked when its receiver type is
// marked and an interface the module can see declares its name: that is
// how json.Marshal reaches MarshalJSON and fmt reaches String.
type reach struct {
	decls   map[types.Object]decl
	marked  map[types.Object]bool
	queue   []types.Object
	named   map[*types.Named]bool
	dynamic map[string]bool
}

type decl struct {
	p    *pkg
	node ast.Node
}

func newReach(pkgs []*pkg) *reach {
	r := &reach{decls: map[types.Object]decl{}, marked: map[types.Object]bool{},
		named: map[*types.Named]bool{}, dynamic: map[string]bool{}}
	stdSeen := map[*types.Package]bool{}
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					r.decls[p.info.Defs[d.Name]] = decl{p, d}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							r.decls[p.info.Defs[s.Name]] = decl{p, s}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								r.decls[p.info.Defs[n]] = decl{p, s}
							}
						}
					}
				}
			}
		}
		for _, imp := range p.types.Imports() {
			if !strings.HasPrefix(imp.Path(), "caladrius/") && !stdSeen[imp] {
				stdSeen[imp] = true
				r.interfaceNames(imp.Scope())
			}
		}
		r.interfaceNames(p.types.Scope())
	}
	return r
}

// interfaceNames adds the methods of every interface a scope declares
// to the names that dynamic dispatch can reach.
func (r *reach) interfaceNames(s *types.Scope) {
	for _, name := range s.Names() {
		if tn, ok := s.Lookup(name).(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				r.markType(it)
			}
		}
	}
}

// markInits marks what importing p executes: init functions and
// package-level variable initialisers.
func (r *reach) markInits(p *pkg) {
	for _, f := range p.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.Name == "init" {
					r.walk(p, d)
				}
			case *ast.GenDecl:
				if d.Tok == token.VAR {
					r.walk(p, d)
				}
			}
		}
	}
}

func (r *reach) mark(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.TypeName:
		r.markType(o.Type())
	case *types.Var:
		obj = o.Origin()
	}
	if r.marked[obj] {
		return
	}
	if _, ok := r.decls[obj]; ok {
		r.marked[obj] = true
		r.queue = append(r.queue, obj)
	}
}

func (r *reach) markType(t types.Type) {
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		t = t.Origin()
		if r.named[t] {
			return
		}
		r.named[t] = true
		if it, ok := t.Underlying().(*types.Interface); ok {
			r.markType(it)
		}
		r.mark(t.Obj())
	case *types.Pointer:
		r.markType(t.Elem())
	case *types.Slice:
		r.markType(t.Elem())
	case *types.Array:
		r.markType(t.Elem())
	case *types.Chan:
		r.markType(t.Elem())
	case *types.Map:
		r.markType(t.Key())
		r.markType(t.Elem())
	case *types.Signature:
		r.markType(t.Params())
		r.markType(t.Results())
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			r.markType(t.At(i).Type())
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			r.markType(t.Field(i).Type())
		}
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			r.dynamic[t.Method(i).Name()] = true
		}
	}
}

// walk marks everything a declaration refers to and the type of every
// expression in it.
func (r *reach) walk(p *pkg, n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := p.info.Uses[id]; obj != nil {
				r.mark(obj)
			}
		}
		if e, ok := n.(ast.Expr); ok {
			if tv, ok := p.info.Types[e]; ok {
				r.markType(tv.Type)
			}
		}
		return true
	})
}

// run drains the queue, then marks the dynamically callable methods of
// every marked type, until nothing new is marked.
func (r *reach) run() {
	for {
		for len(r.queue) > 0 {
			obj := r.queue[len(r.queue)-1]
			r.queue = r.queue[:len(r.queue)-1]
			d := r.decls[obj]
			r.walk(d.p, d.node)
		}
		for t := range r.named {
			for i := 0; i < t.NumMethods(); i++ {
				if m := t.Method(i); r.dynamic[m.Name()] {
					r.mark(m)
				}
			}
		}
		if len(r.queue) == 0 {
			return
		}
	}
}
