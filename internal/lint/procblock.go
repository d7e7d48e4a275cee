package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// Procblock enforces the engine contract documented on sim.Engine.Go: a
// *sim.Proc body is cooperatively scheduled — the engine resumes
// exactly one process at a time and blocks until it yields via
// Sleep/Await/Suspend — so any real blocking operation (channel
// send/receive, select, sync.Mutex/RWMutex/WaitGroup/Cond waits,
// time.Sleep) deadlocks the whole simulation. The analyzer flags those
// operations in any function that takes a *sim.Proc parameter. Nested
// function literals are examined on their own (they only fall under
// the contract if they themselves take a *sim.Proc).
func Procblock() *Analyzer {
	a := &Analyzer{
		Name: "procblock",
		Doc:  "flag real blocking operations inside *sim.Proc process bodies",
	}
	a.Run = func(pass *Pass) {
		check := func(c *Cursor) {
			p := pass.Pkg
			var sig *types.Signature
			var body *ast.BlockStmt
			switch fn := c.Node.(type) {
			case *ast.FuncDecl:
				if obj, ok := p.Info.Defs[fn.Name].(*types.Func); ok {
					sig, _ = obj.Type().(*types.Signature)
				}
				body = fn.Body
			case *ast.FuncLit:
				if tv, ok := p.Info.Types[fn]; ok {
					sig, _ = tv.Type.(*types.Signature)
				}
				body = fn.Body
			}
			if sig == nil || body == nil || !hasProcParam(sig) {
				return
			}
			for _, d := range blockingOps(p, body) {
				*pass.diags = append(*pass.diags, d)
			}
		}
		pass.Inspect(check, (*ast.FuncDecl)(nil), (*ast.FuncLit)(nil))
	}
	return a
}

// hasProcParam reports whether any parameter is a *sim.Proc.
func hasProcParam(sig *types.Signature) bool {
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		ptr, ok := params.At(i).Type().(*types.Pointer)
		if !ok {
			continue
		}
		named, ok := ptr.Elem().(*types.Named)
		if !ok {
			continue
		}
		obj := named.Obj()
		if obj.Name() == "Proc" && obj.Pkg() != nil && obj.Pkg().Path() == simPkgPath {
			return true
		}
	}
	return false
}

// blockingOps walks a proc body, skipping nested function literals, and
// reports every real blocking operation.
func blockingOps(p *Package, body *ast.BlockStmt) []Diagnostic {
	var diags []Diagnostic
	report := func(n ast.Node, what string) {
		diags = append(diags, Diagnostic{
			Analyzer: "procblock",
			Pos:      p.Fset.Position(n.Pos()),
			Message: fmt.Sprintf("%s in a *sim.Proc body will deadlock the engine (see internal/sim/proc.go): "+
				"the engine resumes one process at a time; yield with Proc.Sleep/Await/Suspend instead", what),
		})
	}
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false // separately analyzed iff it takes a *sim.Proc
			case *ast.SendStmt:
				report(n, "channel send")
			case *ast.UnaryExpr:
				if n.Op.String() == "<-" {
					report(n, "channel receive")
				}
			case *ast.SelectStmt:
				report(n, "select statement")
				// Don't double-report the comm clauses' channel ops;
				// do keep walking the case bodies.
				for _, c := range n.Body.List {
					if cc, ok := c.(*ast.CommClause); ok {
						for _, s := range cc.Body {
							walk(s)
						}
					}
				}
				return false
			case *ast.RangeStmt:
				if tv, ok := p.Info.Types[n.X]; ok {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
						report(n, "range over channel")
					}
				}
			case *ast.CallExpr:
				obj := calleeObj(p.Info, n)
				switch path := pkgPathOf(obj); {
				case path == "time" && obj.Name() == "Sleep":
					report(n, "time.Sleep (real time)")
				case path == "sync" && (obj.Name() == "Lock" || obj.Name() == "RLock" || obj.Name() == "Wait"):
					report(n, "sync."+obj.Name())
				}
			}
			return true
		})
	}
	walk(body)
	return diags
}
