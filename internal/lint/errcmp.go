package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Errcmp requires errors.Is for comparisons against the module's typed
// sentinel errors (txn.ErrTimeout, txn.ErrDeviceDown, txn.ErrRefused,
// etrans.ErrExecutorFailed, ...). Every production path wraps these
// sentinels with context (`fmt.Errorf("%w: ...")`), so an ==
// comparison is not just unidiomatic — it is wrong: it never
// matches the wrapped error and silently turns a typed failure into an
// unhandled one. Only fcc-module sentinels are enforced; stdlib
// sentinels like io.EOF keep their conventional comparisons.
func Errcmp() *Analyzer {
	a := &Analyzer{
		Name: "errcmp",
		Doc:  "require errors.Is over == for the module's sentinel errors",
	}
	a.Run = func(pass *Pass) {
		p := pass.Pkg
		report := func(n ast.Node, obj types.Object) {
			pass.Reportf(n.Pos(),
				"comparing against sentinel %s.%s with ==/switch never matches its wrapped forms; use errors.Is",
				pkgPathOf(obj), obj.Name())
		}
		pass.Inspect(func(c *Cursor) {
			n := c.Node.(*ast.BinaryExpr)
			if n.Op != token.EQL && n.Op != token.NEQ {
				return
			}
			if obj := sentinelErrObj(p, n.X); obj != nil && isErrorOperand(p, n.Y) {
				report(n, obj)
			} else if obj := sentinelErrObj(p, n.Y); obj != nil && isErrorOperand(p, n.X) {
				report(n, obj)
			}
		}, (*ast.BinaryExpr)(nil))
		pass.Inspect(func(c *Cursor) {
			n := c.Node.(*ast.SwitchStmt)
			if n.Tag == nil || !isErrorOperand(p, n.Tag) {
				return
			}
			for _, cl := range n.Body.List {
				cc, ok := cl.(*ast.CaseClause)
				if !ok {
					continue
				}
				for _, e := range cc.List {
					if obj := sentinelErrObj(p, e); obj != nil {
						report(e, obj)
					}
				}
			}
		}, (*ast.SwitchStmt)(nil))
	}
	return a
}

// sentinelErrObj reports the package-level error variable e refers to,
// if e is a fcc-module sentinel (a top-level `var ErrXxx` of type
// error), else nil.
func sentinelErrObj(p *Package, e ast.Expr) types.Object {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	obj, ok := p.Info.Uses[id].(*types.Var)
	if !ok || obj.Pkg() == nil {
		return nil
	}
	path := obj.Pkg().Path()
	if path != "fcc" && !strings.HasPrefix(path, "fcc/") {
		return nil
	}
	if obj.Parent() != obj.Pkg().Scope() || !strings.HasPrefix(obj.Name(), "Err") {
		return nil
	}
	if !isErrorType(obj.Type()) {
		return nil
	}
	return obj
}

// isErrorOperand reports whether e has the error type (and is not the
// nil literal — err == nil stays idiomatic).
func isErrorOperand(p *Package, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.IsNil() {
		return false
	}
	return isErrorType(tv.Type)
}
