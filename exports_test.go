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
	"slices"
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

	// PAPER.md inventory row 2: `heron update` on the running
	// simulation, and the topology copy it deploys.
	"heron.Simulation.Update":           "PAPER.md row 2: `heron update`, incl. dry-run",
	"topology.Topology.WithParallelism": "heron.Simulation.Update (PAPER.md row 2); internal/tracker TestUpdateBumpsVersion",

	// Seams other packages' tests drive.
	"heron.Simulation.SetRouteAlpha":        "internal/audit TestClosedLoopAccuracyDrift",
	"heron.Simulation.Totals":               "internal/chaos invariant suite (assertConservation)",
	"heron.ZipfKeys.Weights":                "internal/core TestBiasedFieldsGroupingModel (Eq. 11)",
	"heron.ExplicitKeys.Weights":            "internal/core TestCalibrateTopologyInputShares",
	"tracker.Tracker.Update":                "internal/api TestTrackerUpdateEvictsExactlyChangedTopology",
	"tracker.Tracker.Remove":                "internal/api TestTrackerRemoveEvictsEntry",
	"tracker.Tracker.notify":                "tracker.Tracker.Update and Remove",
	"tsdb.DB.SeriesCount":                   "internal/telemetry TestScrapeHistogramBucketsAndQuantiles",
	"topology.PackingPlan.InstanceCount":    "internal/heron TestUpdateDryRun",
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
	l, _, r := programReach(t)

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

// programReach type-checks the module and marks what the programs
// (cmd/, examples/ and the benchmark module) reach. It returns the
// programs' own packages as roots.
func programReach(t *testing.T) (*loader, []*pkg, *reach) {
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
	return l, roots, r
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

// seams names the user of every option field (an exported field of a
// struct named Config, Options or …Options under internal/, bar
// config.Config, whose rows TestEverySettingIsRead holds) that no
// program sets. An entry is allowed for a fake that a named test
// substitutes and for an item of PAPER.md's inventory. Any other value
// nothing but tests sets is a constant beside its user.
var seams = map[string]string{
	// Fakes a named test substitutes.
	"daemon.Config.Now":                  "internal/profiler TestClosedLoopProfileRegression and internal/incident TestClosedLoopIncidentCapture: the simulated clock",
	"daemon.Config.Wall":                 "internal/daemon TestOneWriterPerHistorySeries, TestAlertReadsAdvanceNothing and the two closed loops: the simulated clock",
	"daemon.Config.Registry":             "internal/profiler TestClosedLoopProfileRegression: the simulation counts into the daemon's registry; cmd/calctl TestProfileCommand",
	"daemon.Config.Profiler":             "cmd/calctl TestProfileCommand and TestProfileCommandErrors: a profiler over a synthetic capture source",
	"profiler.Options.Source":            "internal/api TestProfilesEndpoints, cmd/calctl TestProfileCommand, internal/profiler's tests: synthetic profiles",
	"incident.Options.CPUProfile":        "internal/incident and internal/api incident tests: at the shipped 2 s every test bundle would spend 2 s sampling",
	"chaos.ProviderOptions.Now":          "internal/chaos TestFaultyProviderOutage and TestFaultyProviderLatency: a fixed clock",
	"chaos.ProviderOptions.Sleep":        "internal/chaos TestFaultyProviderLatency: records the injected delays instead of sleeping",
	"soak.DaemonOptions.Now":             "internal/soak TestSoakDeterministicFaultCycle: a manual clock",
	"heron.WordCountOptions.CounterKeys": "internal/core TestBiasedFieldsGroupingModel (Eq. 11) and TestCalibrateTopologyInputShares: skewed keys",

	// PAPER.md inventory row 2: several topologies in one store.
	"heron.Config.DB": "PAPER.md row 2: internal/heron TestSharedDBSeparatesTopologies, simulations sharing one store",
}

// TestEveryOptionNamesItsUser fails for an option field that code the
// programs reach never writes, unless seams names its user, and for a
// seams entry that a program writes or that no longer exists.
func TestEveryOptionNamesItsUser(t *testing.T) {
	l, roots, r := programReach(t)
	options := optionFields(l)

	w := fieldWrites{options: options, from: map[types.Object][]types.Object{}}
	for _, p := range roots {
		for _, f := range p.files {
			w.scan(p, f)
		}
	}
	for obj := range r.marked {
		w.scan(r.decls[obj].p, r.decls[obj].node)
	}
	for _, p := range importClosure(roots, l) {
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, isFunc := d.(*ast.FuncDecl)
				gd, isGen := d.(*ast.GenDecl)
				if isFunc && fd.Recv == nil && fd.Name.Name == "init" || isGen && gd.Tok == token.VAR {
					w.scan(p, d)
				}
			}
		}
	}
	written := w.resolve()

	unset := map[string]bool{}
	for f, key := range options {
		if !written[f] {
			unset[key] = true
			if seams[key] == "" {
				t.Errorf("%s (%s) is set only by tests or its own default: make it a constant beside its user, or name its user in seams",
					key, l.fset.Position(f.Pos()))
			}
		}
	}
	for key := range seams {
		if !unset[key] {
			t.Errorf("seams lists %s, which a program sets or which no longer exists", key)
		}
	}
	t.Logf("option fields: %d (%d seams)", len(options), len(seams))
}

// optionFields maps every option field under internal/ (an exported
// field of a struct named Config, Options or …Options, bar
// config.Config) to its pkg.Type.Field key.
func optionFields(l *loader) map[types.Object]string {
	options := map[types.Object]string{}
	for _, p := range l.ordered {
		if !strings.HasPrefix(p.rel, "internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			if name != "Config" && !strings.HasSuffix(name, "Options") || p.key+"."+name == "config.Config" {
				continue
			}
			if st, ok := scope.Lookup(name).Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() {
						options[f] = p.key + "." + name + "." + f.Name()
					}
				}
			}
		}
	}
	return options
}

// fallbacks names, for every option field whose zero value the code
// replaces (if x.F == 0 { x.F = … }, or cmp.Or(x.F, …)), the non-test
// caller that leaves the field zero, or the DESIGN convention the
// fallback keeps. Any other fallback restates a default config.Default()
// already states, or stands in for a value every caller passes: the
// field is then taken as given.
var fallbacks = map[string]string{
	// The nil-registry convention (DESIGN, Composition root): a nil
	// registry is a private one.
	"api.Options.Telemetry":          "DESIGN Composition root",
	"sched.Options.Registry":         "DESIGN Composition root",
	"sched.CalCacheOptions.Registry": "DESIGN Composition root; internal/api and benchmark/layers.go leave it nil",
	"usage.Options.Registry":         "DESIGN Composition root",

	// A setting's zero that means something.
	"sched.Options.Workers": "the sched.workers setting's 0 means max(2, GOMAXPROCS)",

	// Fields a program leaves zero.
	"api.Options.Tracer":             "benchmark/stack.go: a private tracer",
	"sched.CalCacheOptions.Now":      "benchmark/layers.go: time.Now",
	"telemetry.ScrapeOptions.Now":    "benchmark/stack.go: time.Now",
	"usage.Options.Now":              "benchmark/stack.go: time.Now",
	"soak.DaemonOptions.Now":         "cmd/caladriussoak through soak.RunSoak: time.Now",
	"incident.Options.CPUProfile":    "internal/daemon: a 2 s CPU profile",
	"profiler.Options.Source":        "internal/daemon: the runtime's own profiles",
	"core.CalibrationOptions.Window": "the examples, internal/dhalion and internal/experiments: the simulator's 1-minute metrics window",

	// The word-count preset's zero value is the paper's evaluation
	// shape (§V: 8 spouts, 1 splitter, 3 counters on 2 containers,
	// uniform keys).
	"heron.WordCountOptions.SpoutP":      "internal/daemon, benchmark/stack.go and the internal/experiments sweeps: 8 spouts",
	"heron.WordCountOptions.SplitterP":   "the preset's zero-value convention, which the tests' word-count fixtures use: 1 splitter",
	"heron.WordCountOptions.CounterP":    "the preset's zero-value convention, which the tests' word-count fixtures use: 3 counters",
	"heron.WordCountOptions.Containers":  "internal/daemon, benchmark/stack.go and the internal/experiments sweeps: 2 containers",
	"heron.WordCountOptions.CounterKeys": "internal/daemon, benchmark/stack.go and the internal/experiments sweeps: uniform keys",
	"heron.Config.Plan":                  "internal/experiments ablation-watermarks: round-robin on 2 containers",
	"heron.Config.HighWatermarkBytes":    "heron.NewWordCount, so every word-count program: DefaultHighWatermarkBytes",
	"heron.Config.LowWatermarkBytes":     "heron.NewWordCount, so every word-count program: DefaultLowWatermarkBytes",
	"heron.Config.Tick":                  "heron.NewWordCount for internal/daemon and benchmark/stack.go, which leave WordCountOptions.Tick zero: 100 ms",
	"heron.Config.DB":                    "heron.NewWordCount and internal/experiments ablation-watermarks: a private store",
}

// TestEveryFallbackNamesItsUser fails for a fallback on an option field
// that fallbacks does not list, and for a fallbacks row that no
// fallback matches.
func TestEveryFallbackNamesItsUser(t *testing.T) {
	l, _, _ := programReach(t)
	options := optionFields(l)
	field := func(p *pkg, e ast.Expr) string {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			return options[p.info.Uses[sel.Sel]]
		}
		return ""
	}
	isZero := func(p *pkg, e ast.Expr) bool {
		tv := p.info.Types[e]
		return tv.IsNil() || tv.Value != nil && (tv.Value.ExactString() == "0" || tv.Value.ExactString() == `""`)
	}
	found := map[string]bool{}
	flag := func(key string, pos token.Pos) {
		found[key] = true
		if fallbacks[key] == "" {
			t.Errorf("%s (%s) falls back when zero: take it as given, or name the caller that leaves it zero in fallbacks",
				key, l.fset.Position(pos))
		}
	}
	for _, p := range l.ordered {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.IfStmt:
					cond, ok := ast.Unparen(n.Cond).(*ast.BinaryExpr)
					if !ok {
						break
					}
					key := field(p, cond.X)
					if key == "" || !isZero(p, cond.Y) {
						if key = field(p, cond.Y); key == "" || !isZero(p, cond.X) {
							break
						}
					}
					assigns := false
					ast.Inspect(n.Body, func(m ast.Node) bool {
						if as, ok := m.(*ast.AssignStmt); ok && slices.ContainsFunc(as.Lhs, func(e ast.Expr) bool { return field(p, e) == key }) {
							assigns = true
						}
						return !assigns
					})
					if assigns {
						flag(key, n.Pos())
					}
				case *ast.CallExpr:
					if fn, ok := n.Fun.(*ast.SelectorExpr); ok && len(n.Args) > 0 {
						if obj := p.info.Uses[fn.Sel]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "cmp" && obj.Name() == "Or" {
							if key := field(p, n.Args[0]); key != "" {
								flag(key, n.Pos())
							}
						}
					}
				}
				return true
			})
		}
	}
	for key := range fallbacks {
		if !found[key] {
			t.Errorf("fallbacks lists %s, which no code falls back on", key)
		}
	}
	t.Logf("option fallbacks: %d", len(found))
}

// fieldWrites collects the struct fields that code sets: by key or
// position in a composite literal, by assignment or by taking the
// field's address. An assignment inside an if whose condition reads the
// same field, or whose value reads it (o.F = cmp.Or(o.F, d)), is the
// declaring package's default and does not count. A value that is
// itself an option field forwards it: the write counts only if that
// field is set.
type fieldWrites struct {
	options map[types.Object]string
	from    map[types.Object][]types.Object // field → forwarded option fields; nil for a value of its own
}

func (w fieldWrites) scan(p *pkg, n ast.Node) {
	set := func(sel *ast.Ident, value ast.Expr) {
		var src types.Object
		if v, ok := ast.Unparen(value).(*ast.SelectorExpr); ok && w.options[p.info.Uses[v.Sel]] != "" {
			src = p.info.Uses[v.Sel]
		}
		f := p.info.Uses[sel]
		w.from[f] = append(w.from[f], src)
	}
	var stack []ast.Node
	ast.Inspect(n, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.CompositeLit:
			st, ok := p.info.Types[n].Type.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					set(kv.Key.(*ast.Ident), kv.Value)
				} else {
					w.from[st.Field(i)] = append(w.from[st.Field(i)], nil)
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				break
			}
			for i, lhs := range n.Lhs {
				sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				var value ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					value = n.Rhs[i]
				}
				f := p.info.Uses[sel.Sel]
				if reads(p, value, f) || slices.ContainsFunc(stack, func(n ast.Node) bool {
					ifs, ok := n.(*ast.IfStmt)
					return ok && reads(p, ifs.Cond, f)
				}) {
					continue
				}
				set(sel.Sel, value)
			}
		case *ast.UnaryExpr:
			if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok && n.Op == token.AND {
				set(sel.Sel, nil)
			}
		}
		return true
	})
}

// resolve is the set of fields some write sets, following forwards.
func (w fieldWrites) resolve() map[types.Object]bool {
	written := map[types.Object]bool{}
	for grew := true; grew; {
		grew = false
		for f, srcs := range w.from {
			for _, src := range srcs {
				if !written[f] && (src == nil || written[src]) {
					written[f], grew = true, true
				}
			}
		}
	}
	return written
}

// reads reports whether expression e reads field f.
func reads(p *pkg, e ast.Expr, f types.Object) bool {
	found := false
	if e != nil {
		ast.Inspect(e, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && p.info.Uses[sel.Sel] == f {
				found = true
			}
			return !found
		})
	}
	return found
}
