// Package lint is a self-contained static-analysis framework for the
// runtime invariants this codebase's correctness arguments lean on:
// deterministic canonical encodings, lock discipline in the
// evaluation runtime, and sealed fleet wire payloads. It mirrors the
// shape of golang.org/x/tools/go/analysis — Analyzer, Pass, fixture
// tests with // want comments — but is built only on the standard
// library so the module carries no external dependencies: packages
// are loaded via `go list -export` and type-checked against gc export
// data from the build cache.
//
// Two directive comments steer the analyzers:
//
//	//paglint:deterministic   file computes canonical encodings; the
//	                          determinism analyzer applies to it
//	//paglint:allow <name>    suppress <name>'s findings on this line
//	                          (same line or the line directly above)
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named invariant check over a type-checked
// package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// A Pass carries one package through one analyzer. Run reports
// findings via Report; the driver applies //paglint:allow
// suppressions afterwards.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	PkgPath  string
	Types    *types.Package
	Info     *types.Info

	diags []Diagnostic
}

// A Diagnostic is one finding, already resolved to a file position.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"pos"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Report records one finding at pos.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// FileDirective reports whether f carries the file-scoped directive
// //paglint:<name> anywhere in its comments.
func (p *Pass) FileDirective(f *ast.File, name string) bool {
	want := "//paglint:" + name
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.TrimSpace(c.Text) == want {
				return true
			}
		}
	}
	return false
}

// ObjectOf resolves the use of an identifier, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if obj := p.Info.Uses[id]; obj != nil {
		return obj
	}
	return p.Info.Defs[id]
}

// CalleeIn resolves a call to a function or method declared in
// package path pkg, returning it, or nil if the call is anything
// else. It sees through selector calls (time.Now, wg.Wait) but not
// through function values.
func (p *Pass) CalleeIn(call *ast.CallExpr, pkg string) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return nil
	}
	fn, ok := p.ObjectOf(id).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != pkg {
		return nil
	}
	return fn
}

// allowKey identifies one suppressed (file line, analyzer) pair.
type allowKey struct {
	file     string
	line     int
	analyzer string
}

// allowSet collects //paglint:allow directives: an allow on line N
// suppresses findings on N (trailing comment) and N+1 (comment line
// above the flagged statement). Everything after a "--" is a
// justification for human readers.
func allowSet(fset *token.FileSet, files []*ast.File) map[allowKey]bool {
	const prefix = "//paglint:allow "
	set := make(map[allowKey]bool)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, prefix) {
					continue
				}
				names := text[len(prefix):]
				if i := strings.Index(names, "--"); i >= 0 {
					names = names[:i]
				}
				pos := fset.Position(c.Pos())
				for _, name := range strings.Fields(names) {
					set[allowKey{pos.Filename, pos.Line, name}] = true
					set[allowKey{pos.Filename, pos.Line + 1, name}] = true
				}
			}
		}
	}
	return set
}

// Run applies every analyzer to every package and returns the
// surviving findings sorted by position. //paglint:allow directives
// are honoured here, so analyzers themselves stay suppression-free.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range pkgs {
		allowed := allowSet(pkg.Fset, pkg.Files)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				PkgPath:  pkg.PkgPath,
				Types:    pkg.Types,
				Info:     pkg.Info,
			}
			a.Run(pass)
			for _, d := range pass.diags {
				if !allowed[allowKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}] {
					out = append(out, d)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// All is the paglint analyzer suite.
func All() []*Analyzer {
	return []*Analyzer{Determinism, LockDiscipline, SealedIO}
}
