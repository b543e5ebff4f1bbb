// Package analysis provides the minimal static-analysis vocabulary the
// slugvet suite is built on: an Analyzer runs over one type-checked
// package (a Pass) and reports Diagnostics.
//
// The API deliberately mirrors golang.org/x/tools/go/analysis so the
// repo's analyzers could be ported to a stock multichecker by changing
// imports only. The x/tools module is not vendored here — builds must
// work from the standard library alone — so this package re-implements
// the small subset the suite needs (no Facts, no SSA, no suggested
// fixes) on top of go/ast and go/types. Package loading and type
// checking live in internal/analysis/driver.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one invariant checker: a name (used in output and
// in //slugvet:ok suppression comments), a doc string explaining the
// invariant it enforces, and a Run function applied once per package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) (any, error)
}

// Pass is the unit of work handed to an Analyzer: one type-checked
// package with its syntax trees and type information.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. The driver attaches analyzer
	// identity and applies //slugvet:ok suppression before printing.
	Report func(Diagnostic)
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf formats and reports a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// DirectiveAnnotated reports whether the doc comment group contains a
// line-comment directive of the form "//slugvet:<name>" and, when the
// directive takes a justification ("//slugvet:unsafe <reason>"),
// returns the text after the directive.
func DirectiveAnnotated(doc *ast.CommentGroup, name string) (string, bool) {
	if doc == nil {
		return "", false
	}
	prefix := "//slugvet:" + name
	for _, c := range doc.List {
		if c.Text == prefix {
			return "", true
		}
		if rest, ok := strings.CutPrefix(c.Text, prefix+" "); ok {
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}

// ReceiverNamed returns the named type of a method call's receiver with
// pointers stripped, or nil if the callee is not a selector on a value
// (package-qualified calls, builtins).
func ReceiverNamed(info *types.Info, call *ast.CallExpr) *types.Named {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s := info.Selections[sel]
	if s == nil {
		return nil // package-qualified identifier, not a field/method
	}
	return NamedOf(s.Recv())
}

// NamedOf strips pointers and aliases from t and returns the underlying
// *types.Named, or nil.
func NamedOf(t types.Type) *types.Named {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// IsPkgFunc reports whether the call is to the package-level function
// pkgPath.name (e.g. "net/http".Get).
func IsPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return false
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath && fn.Name() == name && fn.Type().(*types.Signature).Recv() == nil
}

// CalleeName returns the bare name of the called function or method
// ("Close" for f.Close(), "Sort" for sort.Sort()), or "".
func CalleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name
	case *ast.Ident:
		return fun.Name
	}
	return ""
}

// ErrorResultOnly reports whether the call's type is exactly one value
// of type error.
func ErrorResultOnly(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok {
		return false
	}
	named, ok := types.Unalias(tv.Type).(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// InspectStack walks the tree rooted at root in depth-first order,
// calling fn with each node and the stack of its ancestors (outermost
// first, not including n itself). If fn returns false the node's
// children are skipped.
func InspectStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}
