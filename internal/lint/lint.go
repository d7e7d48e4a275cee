// Package lint implements fcclint, the repo's determinism and
// engine-invariant static-analysis pass. The simulator's value rests on
// byte-identical same-seed runs (see the blast-radius experiment in
// internal/exp), and on model code honouring the cooperative-scheduling
// contract of internal/sim. Those invariants used to live in comments;
// the analyzers here make them machine-checked:
//
//   - detban:    no wall-clock, global-randomness, or environment reads
//     in simulation code — virtual time comes from sim.Engine,
//     randomness from a seeded *sim.RNG.
//   - maporder:  no order-sensitive work (event scheduling, output,
//     unsorted collection) driven directly off Go's randomized
//     map iteration order.
//   - procblock: no real blocking operations (channel ops, select,
//     sync.Mutex/WaitGroup waits, time.Sleep) inside functions
//     that run as *sim.Proc bodies — the engine resumes exactly
//     one process at a time, so real blocking deadlocks the DES.
//   - errcmp:    compare the module's typed sentinel errors
//     (txn.ErrTimeout, txn.ErrRefused, etrans.ErrExecutorFailed, …)
//     with errors.Is, never ==, because every production path
//     wraps them.
//   - hotpath:   no map construction in files tagged //fcclint:hotpath —
//     packet-path state lives in dense tables and free lists,
//     not hash maps (the PR 5 dense-structure discipline).
//   - concban:   no bare goroutines or channels in sim-facing code —
//     cross-engine traffic goes through sim.Mailbox under the
//     window-barrier coordinator; the sanctioned machinery
//     itself opts out with a //fcclint:conc file tag.
//   - detflow:   interprocedural taint tracking from nondeterministic
//     sources (map-iteration-order collections, %p/pointer
//     formatting, unsafe.Pointer addresses) into
//     snapshot-observable sinks (stats registration, histogram
//     observations, event scheduling, encoders) — the
//     cross-function generalization of maporder.
//   - poolref:   path-sensitive ownership checking for pooled flits:
//     leak on early return, double release, use after
//     release, across function boundaries via summaries.
//   - tiesort:   same-instant cohort accumulators drained by a 0-delay
//     event must be canonically sorted before the drain (the
//     DESIGN.md "tie discipline"; the shape of the PR 6
//     StallPicks and PR 7 crossbar-arbitration bugs).
//
// Architecture: all analyzers run on a shared-inspector, fact-based
// pass framework. Each package's files are walked exactly once; every
// analyzer registers typed node handlers, per-file hooks, and finish
// hooks against that single walk. Interprocedural analyzers summarize
// each function into facts (exported per package, imported by
// dependents), and the runner analyzes packages in dependency order —
// in parallel across packages when the order allows — so summaries are
// always complete before their importers need them.
//
// The pass is stdlib-only (go/parser + go/ast + go/types; export data
// located by shelling out to `go list`). Suppression is explicit: either
// an inline `//fcclint:allow <analyzer> <reason>` directive on (or
// immediately above) the offending line, or a path-prefix entry in the
// repository's .fcclint.allow file.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one rule: a name, a one-line doc string, and a Run
// function that registers the rule's hooks on a package's Pass.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(pass *Pass)
}

// Analyzers returns the full rule set in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		Detban(), Maporder(), Procblock(), Errcmp(), Hotpath(), Concban(),
		Detflow(), Poolref(), Tiesort(),
	}
}

// Package is one typechecked target package, ready for analysis.
type Package struct {
	Path  string // import path
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// Imports are the package's direct imports (all of them; the
	// scheduler filters to in-target-set edges).
	Imports []string

	// ModuleDir is the module root, used to relativize paths for the
	// allowlist.
	ModuleDir string

	declOnce  sync.Once
	funcDecls map[*types.Func]*ast.FuncDecl
}

// FuncDecl returns the declaration of a function or method defined in
// this package, or nil. Interprocedural analyzers use it to follow an
// event-handler reference to its body.
func (p *Package) FuncDecl(obj *types.Func) *ast.FuncDecl {
	p.declOnce.Do(func() {
		p.funcDecls = map[*types.Func]*ast.FuncDecl{}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
						p.funcDecls[fn] = fd
					}
				}
			}
		}
	})
	return p.funcDecls[obj]
}

// simPkgPath is the engine package whose contract the analyzers protect.
const simPkgPath = "fcc/internal/sim"

// flitPkgPath is the pooled-flit package whose ownership contract
// poolref checks.
const flitPkgPath = "fcc/internal/flit"

// Pass is one analyzer's handle on one package: it registers hooks on
// the package's shared inspector, reports diagnostics, and exchanges
// function-summary facts with the passes of dependency packages.
type Pass struct {
	Pkg *Package

	analyzer *Analyzer
	insp     *inspector
	facts    *FactStore
	diags    *[]Diagnostic
	elapsed  *time.Duration // per-analyzer wall time, nil when not timing
}

// Reportf records a diagnostic at pos.
func (pass *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*pass.diags = append(*pass.diags, Diagnostic{
		Analyzer: pass.analyzer.Name,
		Pos:      pass.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Inspect registers fn to run on every node whose concrete type matches
// one of the example nodes, during the package's single shared walk.
func (pass *Pass) Inspect(fn func(*Cursor), examples ...ast.Node) {
	pass.insp.addHandler(pass.timed1(fn), examples)
}

// OnFile registers fn to run once per file, before that file's nodes
// are walked.
func (pass *Pass) OnFile(fn func(*ast.File)) {
	pass.insp.onFile = append(pass.insp.onFile, pass.timed2(fn))
}

// OnFinish registers fn to run after the whole package has been walked.
// Interprocedural analyzers do their summary fixpoints here.
func (pass *Pass) OnFinish(fn func()) {
	pass.insp.onFinish = append(pass.insp.onFinish, pass.timed0(fn))
}

// ExportFact records a function summary for obj, visible to this
// analyzer in every package analyzed later (including this one).
func (pass *Pass) ExportFact(obj types.Object, fact any) {
	pass.facts.export(pass.analyzer.Name, obj, fact)
}

// ImportFact returns the summary this analyzer exported for obj, if
// any — whether obj lives in this package or in a dependency.
func (pass *Pass) ImportFact(obj types.Object) (any, bool) {
	return pass.facts.lookup(pass.analyzer.Name, obj)
}

func (pass *Pass) timed0(fn func()) func() {
	if pass.elapsed == nil {
		return fn
	}
	return func() {
		t0 := time.Now()
		fn()
		*pass.elapsed += time.Since(t0)
	}
}

func (pass *Pass) timed1(fn func(*Cursor)) func(*Cursor) {
	if pass.elapsed == nil {
		return fn
	}
	return func(c *Cursor) {
		t0 := time.Now()
		fn(c)
		*pass.elapsed += time.Since(t0)
	}
}

func (pass *Pass) timed2(fn func(*ast.File)) func(*ast.File) {
	if pass.elapsed == nil {
		return fn
	}
	return func(f *ast.File) {
		t0 := time.Now()
		fn(f)
		*pass.elapsed += time.Since(t0)
	}
}

// Options tunes RunOpts.
type Options struct {
	// Workers bounds the package-level analysis parallelism; <= 0 means
	// min(GOMAXPROCS, 8). Output is deterministic regardless.
	Workers int
	// Timing collects per-analyzer wall time into the returned map.
	Timing bool
}

// DefaultWorkers is the bounded default for package-level parallelism.
func DefaultWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if w > 8 {
		w = 8
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run applies every analyzer to every package, drops suppressed
// findings (inline directives and the allowlist), and returns the
// remainder sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer, allow *Allowlist) []Diagnostic {
	diags, _ := RunOpts(pkgs, analyzers, allow, Options{})
	return diags
}

// RunOpts is Run with scheduling and timing control. Packages are
// analyzed in dependency order (facts flow from imports to importers);
// packages whose dependencies are all done run concurrently on a
// bounded worker pool. Diagnostics are accumulated per package and
// merged with a final deterministic sort, so the output is identical
// at any worker count.
func RunOpts(pkgs []*Package, analyzers []*Analyzer, allow *Allowlist, opts Options) ([]Diagnostic, map[string]time.Duration) {
	workers := opts.Workers
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > len(pkgs) && len(pkgs) > 0 {
		workers = len(pkgs)
	}

	facts := newFactStore(pkgs)
	perPkg := make([][]Diagnostic, len(pkgs))
	var timing map[string]time.Duration
	var timingMu sync.Mutex
	if opts.Timing {
		timing = map[string]time.Duration{}
	}

	analyzeOne := func(i int) {
		p := pkgs[i]
		insp := newInspector()
		var diags []Diagnostic
		var elapsed []time.Duration
		if opts.Timing {
			elapsed = make([]time.Duration, len(analyzers))
		}
		for ai, a := range analyzers {
			pass := &Pass{Pkg: p, analyzer: a, insp: insp, facts: facts, diags: &diags}
			if opts.Timing {
				pass.elapsed = &elapsed[ai]
				t0 := time.Now()
				a.Run(pass)
				elapsed[ai] += time.Since(t0)
			} else {
				a.Run(pass)
			}
		}
		insp.walk(p)
		perPkg[i] = diags
		if opts.Timing {
			timingMu.Lock()
			for ai, a := range analyzers {
				timing[a.Name] += elapsed[ai]
			}
			timingMu.Unlock()
		}
	}

	order, dependents, indegree := depOrder(pkgs)
	if workers <= 1 {
		for _, i := range order {
			analyzeOne(i)
		}
	} else {
		// Dependency-respecting bounded pool: a package is enqueued when
		// its last in-target-set import finishes.
		ready := make(chan int, len(pkgs))
		var mu sync.Mutex
		deg := append([]int(nil), indegree...)
		pending := len(pkgs)
		for i, d := range deg {
			if d == 0 {
				ready <- i
			}
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range ready {
					analyzeOne(i)
					mu.Lock()
					for _, d := range dependents[i] {
						deg[d]--
						if deg[d] == 0 {
							ready <- d
						}
					}
					pending--
					if pending == 0 {
						close(ready)
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
	}

	var out []Diagnostic
	for i, p := range pkgs {
		if len(perPkg[i]) == 0 {
			continue
		}
		dir := directivesFor(p)
		for _, d := range perPkg[i] {
			if dir.allows(d.Analyzer, d.Pos) {
				continue
			}
			if allow.Allows(d.Analyzer, relPath(p.ModuleDir, d.Pos.Filename)) {
				continue
			}
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		if out[i].Pos.Column != out[j].Pos.Column {
			return out[i].Pos.Column < out[j].Pos.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, timing
}

func relPath(root, path string) string {
	if root == "" {
		return filepath.ToSlash(path)
	}
	if r, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(r, "..") {
		return filepath.ToSlash(r)
	}
	return filepath.ToSlash(path)
}

// directives indexes //fcclint:allow comments by file:line.
type directives struct {
	// allowed[line key] = set of analyzer names (or "*")
	allowed map[string]map[string]bool
	fset    *token.FileSet
}

// directivesFor scans every comment in the package for
// `//fcclint:allow name[,name...] [reason]` markers. A marker suppresses
// matching diagnostics on its own line and on the following line, so it
// can sit either trailing the offending statement or on its own line
// directly above it.
func directivesFor(p *Package) *directives {
	d := &directives{allowed: map[string]map[string]bool{}, fset: p.Fset}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//fcclint:allow")
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				if len(fields) == 0 {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				for _, name := range strings.Split(fields[0], ",") {
					d.add(pos.Filename, pos.Line, name)
					d.add(pos.Filename, pos.Line+1, name)
				}
			}
		}
	}
	return d
}

func (d *directives) add(file string, line int, analyzer string) {
	key := fmt.Sprintf("%s:%d", file, line)
	if d.allowed[key] == nil {
		d.allowed[key] = map[string]bool{}
	}
	d.allowed[key][analyzer] = true
}

func (d *directives) allows(analyzer string, pos token.Position) bool {
	set := d.allowed[fmt.Sprintf("%s:%d", pos.Filename, pos.Line)]
	return set != nil && (set[analyzer] || set["*"])
}

// pkgPathOf reports the import path of the package an object belongs
// to, or "" for builtins and universe-scope objects.
func pkgPathOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// calleeObj resolves the object a call expression invokes, unwrapping
// parens. Returns nil for builtins, function-typed variables, and
// type conversions.
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		return info.Uses[fn.Sel]
	}
	return nil
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

// isMethodOf reports whether obj is the named method on the named type
// in the given package (receiver pointerness is ignored).
func isMethodOf(obj types.Object, pkgPath, typeName, method string) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Name() != method || pkgPathOf(fn) != pkgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == typeName
}
