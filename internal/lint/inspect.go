package lint

import (
	"go/ast"
	"reflect"
)

// Cursor is the shared inspector's view of one node during the single
// per-package AST walk. It carries the node itself, the file it lives
// in, and the ancestor stack, so analyzers no longer re-walk the file
// to recover context (the old per-analyzer ast.Inspect passes each
// cost a full traversal; the framework now walks once and fans out).
type Cursor struct {
	Node  ast.Node
	File  *ast.File
	stack []ast.Node
}

// EnclosingFunc returns the innermost FuncDecl or FuncLit strictly
// enclosing Node, or nil if Node is at file scope.
func (c *Cursor) EnclosingFunc() ast.Node {
	for i := len(c.stack) - 1; i >= 0; i-- {
		switch c.stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return c.stack[i]
		}
	}
	return nil
}

// inspector is the one-walk-per-package dispatcher: every analyzer
// registers typed node handlers, file hooks, and finish hooks during
// its Run, then walk() traverses each file exactly once and fans each
// node out to the handlers registered for its concrete type.
type inspector struct {
	handlers map[reflect.Type][]func(*Cursor)
	onFile   []func(*ast.File)
	onFinish []func()
}

func newInspector() *inspector {
	return &inspector{handlers: map[reflect.Type][]func(*Cursor){}}
}

func (in *inspector) addHandler(fn func(*Cursor), examples []ast.Node) {
	for _, ex := range examples {
		t := reflect.TypeOf(ex)
		in.handlers[t] = append(in.handlers[t], fn)
	}
}

// walk traverses every file of the package once, maintaining the
// ancestor stack and dispatching each node to the handlers registered
// for its type, then runs the finish hooks in registration order.
func (in *inspector) walk(p *Package) {
	cur := &Cursor{}
	for _, f := range p.Files {
		for _, hook := range in.onFile {
			hook(f)
		}
		cur.File = f
		cur.stack = cur.stack[:0]
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				cur.stack = cur.stack[:len(cur.stack)-1]
				return true
			}
			if hs := in.handlers[reflect.TypeOf(n)]; len(hs) > 0 {
				cur.Node = n
				for _, h := range hs {
					h(cur)
				}
			}
			cur.stack = append(cur.stack, n)
			return true
		})
	}
	for _, fin := range in.onFinish {
		fin()
	}
}
