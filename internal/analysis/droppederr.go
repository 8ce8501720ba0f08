package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// droppedErrPass flags silently dropped error results — the exact shape of
// the replica-loss bug the fault-tolerance PR had to dig out of the chord
// and pastry replication paths (`_, _ = net.Call(...)`).
//
// Two rules:
//
//  1. Fire-and-forget: an assignment whose right side is a single call
//     returning at least one error (or positional []error) and whose left
//     side is entirely blank. The call was issued only for its side
//     effects and its failure is invisible; route the error through a
//     counter (e.g. ReplicationErrors / MaintenanceErrors) or handle it.
//     This rule is name-agnostic: `_, _ = anything(...)` is flagged.
//
//  2. Watched callees: for operations the repository has been burned by —
//     net.Call, the DHT interface methods, the batch planes, Retrier.Do
//     (DefaultDroppedErrCalls) — blanking just the error positions is
//     flagged even when the data results are kept, and calling them as a
//     bare statement (discarding every result) is flagged too.
//
// Documentation examples (func Example… in _test.go files) are exempt:
// they drop errors for godoc brevity by design, and an allow directive in
// an example would render into the documentation.
type droppedErrPass struct{}

func (droppedErrPass) Name() string { return "droppederr" }

func (droppedErrPass) Doc() string {
	return "flag blank-assigned or discarded error results from RPC/DHT/retry operations"
}

func (droppedErrPass) Run(pkg *Package) []Diagnostic {
	watched := make(map[string]bool)
	for _, name := range DefaultDroppedErrCalls {
		watched[name] = true
	}
	var out []Diagnostic
	for _, f := range pkg.Files {
		isTestFile := strings.HasSuffix(pkg.Fset.Position(f.Pos()).Filename, "_test.go")
		ast.Inspect(f, func(n ast.Node) bool {
			if fd, ok := n.(*ast.FuncDecl); ok && isTestFile &&
				strings.HasPrefix(fd.Name.Name, "Example") {
				return false
			}
			switch stmt := n.(type) {
			case *ast.AssignStmt:
				if d, ok := checkAssign(pkg, stmt, watched); ok {
					out = append(out, d)
				}
			case *ast.ExprStmt:
				call, ok := stmt.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				name := calleeName(pkg, call)
				if !watched[name] {
					return true
				}
				if hasErrorResult(pkg, call) {
					out = append(out, pkg.diag(call.Pos(), "droppederr",
						"result of %s discarded, dropping its error; handle it, count it, or //lint:allow droppederr <reason>", name))
				}
			}
			return true
		})
	}
	return out
}

func checkAssign(pkg *Package, stmt *ast.AssignStmt, watched map[string]bool) (Diagnostic, bool) {
	if len(stmt.Rhs) != 1 {
		return Diagnostic{}, false
	}
	call, ok := ast.Unparen(stmt.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return Diagnostic{}, false
	}
	errPos := errorResultPositions(pkg, call)
	if len(errPos) == 0 {
		return Diagnostic{}, false
	}
	allBlank := true
	for _, lhs := range stmt.Lhs {
		if !isBlank(lhs) {
			allBlank = false
			break
		}
	}
	name := calleeName(pkg, call)
	if allBlank {
		return pkg.diag(stmt.Pos(), "droppederr",
			"fire-and-forget call to %s drops its error; handle it, count it, or //lint:allow droppederr <reason>", name), true
	}
	if !watched[name] {
		return Diagnostic{}, false
	}
	// Error positions blanked while data results are kept.
	for _, i := range errPos {
		if i < len(stmt.Lhs) && isBlank(stmt.Lhs[i]) {
			return pkg.diag(stmt.Lhs[i].Pos(), "droppederr",
				"error result of %s assigned to _; handle it, count it, or //lint:allow droppederr <reason>", name), true
		}
	}
	return Diagnostic{}, false
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// calleeName returns the bare name of the called function or method, or ""
// when the callee is not a simple identifier/selector.
func calleeName(pkg *Package, call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

var errorType = types.Universe.Lookup("error").Type()

// resultTypes returns the call's result types, or nil for conversions and
// builtin calls.
func resultTypes(pkg *Package, call *ast.CallExpr) []types.Type {
	tv, ok := pkg.Info.Types[call]
	if !ok {
		return nil
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		out := make([]types.Type, t.Len())
		for i := 0; i < t.Len(); i++ {
			out[i] = t.At(i).Type()
		}
		return out
	default:
		if tv.IsValue() {
			return []types.Type{t}
		}
	}
	return nil
}

// errorResultPositions returns the indices of results that carry errors:
// plain error results and []error batch results.
func errorResultPositions(pkg *Package, call *ast.CallExpr) []int {
	var out []int
	for i, t := range resultTypes(pkg, call) {
		if isErrorCarrier(t) {
			out = append(out, i)
		}
	}
	return out
}

func hasErrorResult(pkg *Package, call *ast.CallExpr) bool {
	return len(errorResultPositions(pkg, call)) > 0
}

func isErrorCarrier(t types.Type) bool {
	if types.Identical(t, errorType) {
		return true
	}
	if s, ok := t.Underlying().(*types.Slice); ok {
		return types.Identical(s.Elem(), errorType)
	}
	return false
}
