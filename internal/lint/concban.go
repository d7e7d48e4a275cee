package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// Concban bans bare concurrency — go statements, channel construction,
// channel send/receive/close, select, and the sync / sync/atomic
// imports — in sim-facing code: package fcc/internal/sim itself and any
// file importing it. The engine's contract is one event at a time per
// shard; the ONLY sanctioned cross-engine machinery is the coordinator
// (internal/sim/shard.go) and its spin-then-park barrier
// (internal/sim/barrier.go), which opt out with a `//fcclint:conc
// <reason>` file tag. Anything else using raw goroutines against engine
// state is a determinism bug waiting for a -race run to find it:
// cross-shard traffic must go through a sim.Mailbox, and in-shard code
// simply schedules events.
// cmd/ binaries are exempted via .fcclint.allow (they orchestrate whole
// private simulations per worker, never sharing one).
func Concban() *Analyzer {
	a := &Analyzer{
		Name: "concban",
		Doc:  "ban bare goroutines/channels in sim-facing code (use sim.Mailbox / the coordinator)",
	}
	a.Run = func(pass *Pass) {
		p := pass.Pkg
		active := map[*ast.File]bool{}
		pass.OnFile(func(f *ast.File) {
			active[f] = concbanApplies(p, f) && !concTagged(f)
			if !active[f] {
				return
			}
			// sync/atomic primitives are the same hazard as channels in
			// sim-facing code: shared mutable state across engine
			// goroutines. The sanctioned users (the coordinator and its
			// barrier) carry the //fcclint:conc tag.
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				if path == "sync" || path == "sync/atomic" {
					pass.Reportf(imp.Pos(), "import %q in sim-facing code; shared-state synchronization belongs to the coordinator's barrier (tag the file //fcclint:conc if it is sanctioned engine machinery)", path)
				}
			}
		})
		isChan := func(e ast.Expr) bool {
			tv, ok := p.Info.Types[e]
			if !ok || tv.Type == nil {
				return false
			}
			_, is := tv.Type.Underlying().(*types.Chan)
			return is
		}
		pass.Inspect(func(c *Cursor) {
			if !active[c.File] {
				return
			}
			switch n := c.Node.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "go statement in sim-facing code; parallelism belongs to the sim.Coordinator (tag the file //fcclint:conc if it is sanctioned engine machinery)")
			case *ast.SelectStmt:
				pass.Reportf(n.Pos(), "select in sim-facing code; engine code is single-threaded per shard — schedule events instead")
			case *ast.SendStmt:
				pass.Reportf(n.Pos(), "channel send in sim-facing code; cross-engine traffic must go through a sim.Mailbox")
			case *ast.UnaryExpr:
				if n.Op.String() == "<-" {
					pass.Reportf(n.Pos(), "channel receive in sim-facing code; cross-engine traffic must go through a sim.Mailbox")
				}
			case *ast.CallExpr:
				if b, ok := builtinCallee(p, n); ok {
					switch b {
					case "make":
						if len(n.Args) > 0 && isChan(n.Args[0]) {
							pass.Reportf(n.Pos(), "make(chan) in sim-facing code; the sanctioned cross-engine channel machinery lives in internal/sim (tagged //fcclint:conc)")
						}
					case "close":
						if len(n.Args) == 1 && isChan(n.Args[0]) {
							pass.Reportf(n.Pos(), "close(chan) in sim-facing code; cross-engine traffic must go through a sim.Mailbox")
						}
					}
				}
			}
		}, (*ast.GoStmt)(nil), (*ast.SelectStmt)(nil), (*ast.SendStmt)(nil),
			(*ast.UnaryExpr)(nil), (*ast.CallExpr)(nil))
	}
	return a
}

// concTagged reports whether f carries the //fcclint:conc directive.
func concTagged(f *ast.File) bool {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if rest, ok := strings.CutPrefix(c.Text, "//fcclint:conc"); ok {
				if rest == "" || rest[0] == ' ' || rest[0] == '\t' {
					return true
				}
			}
		}
	}
	return false
}

// concbanApplies reports whether the file is sim-facing: it belongs to
// the sim package or imports it.
func concbanApplies(p *Package, f *ast.File) bool {
	if p.Path == simPkgPath {
		return true
	}
	for _, imp := range f.Imports {
		if path, err := strconv.Unquote(imp.Path.Value); err == nil && path == simPkgPath {
			return true
		}
	}
	return false
}
