package lint

import (
	"go/ast"
	"go/types"
)

// Determinism guards canonical-encoding code. Files that opt in with
// //paglint:deterministic compute content addresses, cache keys or
// wire bytes whose correctness argument is "same input, same bytes,
// on every machine, forever" — tree hashing, whole-job cache
// canonicalisation, the fleet wire codec. Three things silently break
// that property:
//
//   - time.Now (wall-clock leaks into the encoding),
//   - math/rand (process-local randomness leaks in),
//   - appending inside a range over a map (Go randomises map
//     iteration order, so the slice order differs run to run).
//
// A map range that is genuinely order-insensitive (folding into
// another map, or sorted afterwards) carries //paglint:allow
// determinism with a justification.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "flags wall-clock, randomness and map-iteration order leaking into canonical encodings",
	Run:  runDeterminism,
}

func runDeterminism(pass *Pass) {
	for _, f := range pass.Files {
		if !pass.FileDirective(f, "deterministic") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if fn := pass.CalleeIn(n, "time"); fn != nil && fn.Name() == "Now" {
					pass.Report(n.Pos(), "time.Now in deterministic code: wall-clock time leaks into a canonical encoding")
				}
			case *ast.SelectorExpr:
				if obj := pass.ObjectOf(n.Sel); obj != nil && obj.Pkg() != nil {
					switch obj.Pkg().Path() {
					case "math/rand", "math/rand/v2":
						pass.Report(n.Pos(), "%s.%s in deterministic code: randomness leaks into a canonical encoding", obj.Pkg().Name(), obj.Name())
					}
				}
			case *ast.RangeStmt:
				pass.checkMapRangeAppend(n)
			}
			return true
		})
	}
}

// checkMapRangeAppend flags appends inside a range over a map: the
// element order of the produced slice then depends on Go's randomised
// map iteration order.
func (p *Pass) checkMapRangeAppend(rng *ast.RangeStmt) {
	tv, ok := p.Info.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if _, isFn := n.(*ast.FuncLit); isFn {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, ok := p.ObjectOf(id).(*types.Builtin); ok && b.Name() == "append" {
				p.Report(call.Pos(), "append inside a range over a map: element order depends on randomised map iteration")
			}
		}
		return true
	})
}
