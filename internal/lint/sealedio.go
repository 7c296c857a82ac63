package lint

import (
	"go/ast"
	"strings"
)

// SealedIO enforces the fleet wire-integrity invariant: every RPC
// payload carries a SHA-256 trailer so corruption surfaces as a
// retryable error instead of a silently wrong program. That argument
// holds only if *all* fleet payloads go through the sealed binary
// frames (sealFrame/unsealFrame in wire.go) — one raw json.Marshal on
// a wire path is an unsealed payload whose corruption is undetectable.
// The frames use no JSON at all, so inside internal/fleet any use of
// encoding/json is an error.
var SealedIO = &Analyzer{
	Name: "sealedio",
	Doc:  "flags encoding/json use in fleet code, whose payloads must be sealed binary frames",
	Run:  runSealedIO,
}

func runSealedIO(pass *Pass) {
	if !strings.HasSuffix(pass.PkgPath, "internal/fleet") {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.ObjectOf(sel.Sel)
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "encoding/json" {
				return true
			}
			pass.Report(sel.Pos(), "raw encoding/json (%s) on a fleet payload path: use the sealed binary frames (sealFrame/unsealFrame)", obj.Name())
			return true
		})
	}
}
