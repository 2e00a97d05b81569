package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// MaporderAnalyzer enforces the byte-stable-output contract: Go
// randomizes map iteration order, so a `range` over a map whose body
// feeds an ordered sink — a writer, a trace/metric sink, an event
// schedule, or an accumulator slice that is never sorted — produces
// output that differs run to run. This is the exact hazard behind the
// byte-identical trace/metrics dumps (DESIGN.md §7): every ordered
// emission derived from a map must go through sorted keys.
//
// Three hazard classes are detected inside a map-range body:
//
//  1. direct ordered output: fmt.Print/Fprint* and Write*-style method
//     calls (plus Record/Emit/Publish/Enqueue/Push sinks);
//  2. kernel scheduling: sim.Kernel At/After/Every & friends — event
//     sequence numbers are handed out in call order, so scheduling
//     from a map range makes same-instant tie-breaking nondeterministic;
//  3. unsorted accumulation: append to a slice that is not passed to a
//     sort in the statements following the loop.
//
// v2 closes the v1 false negative: a call inside the map range to a
// *named function* — local closure or package function, at any depth —
// that itself emits into an outliving ordered sink or schedules kernel
// events is resolved through the call graph and reported with the
// witness path. A helper that only writes into its own locals (e.g.
// assembling and returning a string) is not an emitter: the order
// hazard, if any, is at the caller's use of the value, which classes
// 1–3 already cover.
func MaporderAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "maporder",
		Doc:  "no ordered output, kernel scheduling, or unsorted accumulation from inside a map range, directly or through called helpers; sort the keys first",
		Run:  runMaporder,
	}
}

// emitMethods are method names treated as ordered sinks regardless of
// receiver type.
var emitMethods = map[string]bool{
	"Record":  true,
	"Emit":    true,
	"Publish": true,
	"Enqueue": true,
	"Push":    true,
}

// kernelSchedule are sim.Kernel methods that consume an event sequence
// number (or arm a recurring one).
var kernelSchedule = map[string]bool{
	"At":            true,
	"AtPriority":    true,
	"AtCall":        true,
	"After":         true,
	"AfterPriority": true,
	"AfterCall":     true,
	"AfterCallRef":  true,
	"Every":         true,
}

// maporderEmitSeeds returns the sites where one function body emits
// into an ordered sink that outlives the call: fmt.Print* (stdout),
// fmt.Fprint* to a non-local writer, and Write*/Record/Emit/... method
// calls on a non-local receiver. Writes into the function's own locals
// (a strings.Builder assembled and returned) are not emissions.
func maporderEmitSeeds(n *FuncNode) []Seed {
	var out []Seed
	n.walkOwn(func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		fun, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		name := fun.Sel.Name
		if id, ok := fun.X.(*ast.Ident); ok {
			if pn, ok := n.Pkg.Info.Uses[id].(*types.PkgName); ok {
				if pn.Imported().Path() != "fmt" {
					return true
				}
				if strings.HasPrefix(name, "Print") {
					out = append(out, Seed{Pos: call.Pos(), Desc: "fmt." + name})
				}
				if strings.HasPrefix(name, "Fprint") && len(call.Args) > 0 &&
					!localToNode(n, call.Args[0]) {
					out = append(out, Seed{Pos: call.Pos(), Desc: "fmt." + name})
				}
				return true
			}
		}
		if sel, ok := n.Pkg.Info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			if (strings.HasPrefix(name, "Write") || emitMethods[name]) &&
				!localToNode(n, fun.X) {
				out = append(out, Seed{Pos: call.Pos(), Desc: exprString(fun)})
			}
		}
		return true
	})
	return out
}

// maporderSchedSeeds returns the sites where one function body consumes
// kernel event sequence numbers.
func maporderSchedSeeds(n *FuncNode) []Seed {
	var out []Seed
	n.walkOwn(func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		fun, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if !kernelSchedule[fun.Sel.Name] {
			return true
		}
		if sel, ok := n.Pkg.Info.Selections[fun]; ok && sel.Kind() == types.MethodVal &&
			namedFrom(sel.Recv(), "dynaplat/internal/sim", "Kernel") {
			out = append(out, Seed{Pos: call.Pos(), Desc: "Kernel." + fun.Sel.Name})
		}
		return true
	})
	return out
}

// localToNode reports whether the expression's root identifier is a
// variable declared inside the function body itself (not a parameter,
// receiver, captured variable, or package-level object).
func localToNode(n *FuncNode, e ast.Expr) bool {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := n.Pkg.Info.Uses[v]
			if obj == nil {
				obj = n.Pkg.Info.Defs[v]
			}
			if obj == nil {
				return false
			}
			body := n.Body()
			return body != nil && obj.Pos() >= body.Pos() && obj.Pos() < body.End()
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.UnaryExpr:
			e = v.X
		default:
			return false
		}
	}
}

func runMaporder(prog *Program, pkg *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range pkg.Files {
		file := f
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pkg.Info.Types[rs.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			out = append(out, inspectMapRange(prog, pkg, file, rs)...)
			return true
		})
	}
	return out
}

func inspectMapRange(prog *Program, pkg *Package, f *ast.File, rs *ast.RangeStmt) []Diagnostic {
	emitTaints := prog.taint("maporder", "maporder/emit", maporderEmitSeeds)
	schedTaints := prog.taint("maporder", "maporder/sched", maporderSchedSeeds)
	var out []Diagnostic
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		// The hazardous act is the call made during iteration; what a
		// deferred closure does internally is attributed to the call
		// that registered it.
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		direct := false
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if fun.Name == "append" && isBuiltin(pkg, fun) {
				target, targetID := appendTarget(call)
				// A slice declared inside the loop body cannot
				// accumulate across iterations, so map order cannot
				// leak into it.
				if target != "" && !declaredWithin(pkg, targetID, rs) &&
					!sortedAfter(pkg, f, rs, target) {
					out = append(out, pkg.diag("maporder", call.Pos(),
						"append to %q inside map range without a following sort: map iteration order is randomized; collect keys and sort, or sort %q before use",
						target, target))
					direct = true
				}
			}
		case *ast.SelectorExpr:
			name := fun.Sel.Name
			if id, ok := fun.X.(*ast.Ident); ok && isPkgName(pkg, id) {
				if id.Name == "fmt" && (strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")) {
					out = append(out, pkg.diag("maporder", call.Pos(),
						"fmt.%s inside map range emits in randomized map order; iterate sorted keys instead", name))
					direct = true
				}
			} else if sel, ok := pkg.Info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
				recvKernel := namedFrom(sel.Recv(), "dynaplat/internal/sim", "Kernel")
				switch {
				case recvKernel && kernelSchedule[name]:
					out = append(out, pkg.diag("maporder", call.Pos(),
						"Kernel.%s inside map range consumes event sequence numbers in randomized map order, breaking same-instant determinism; schedule from sorted keys", name))
					direct = true
				case strings.HasPrefix(name, "Write") || emitMethods[name]:
					out = append(out, pkg.diag("maporder", call.Pos(),
						"%s inside map range emits into an ordered sink in randomized map order; iterate sorted keys instead", name))
					direct = true
				}
			}
		}
		if direct {
			return true
		}
		// Transitive pass: resolve the call through the call graph and
		// report callees that emit or schedule at any depth.
		for _, e := range prog.Graph().EdgesAt(call) {
			if t := emitTaints[e.Callee]; t != nil {
				out = append(out, pkg.diag("maporder", call.Pos(),
					"%s %s inside map range reaches an ordered sink through %s; map iteration order is randomized — iterate sorted keys instead",
					edgeVerb(e), describeCallee(e), t.Path(pkg)))
				continue
			}
			if t := schedTaints[e.Callee]; t != nil {
				out = append(out, pkg.diag("maporder", call.Pos(),
					"%s %s inside map range reaches kernel scheduling through %s, breaking same-instant determinism; schedule from sorted keys",
					edgeVerb(e), describeCallee(e), t.Path(pkg)))
			}
		}
		return true
	})
	return out
}

// isBuiltin reports whether id resolves to a Go builtin.
func isBuiltin(pkg *Package, id *ast.Ident) bool {
	_, ok := pkg.Info.Uses[id].(*types.Builtin)
	return ok
}

// appendTarget returns the name of the slice being grown, when it is a
// plain identifier.
func appendTarget(call *ast.CallExpr) (string, *ast.Ident) {
	if len(call.Args) == 0 {
		return "", nil
	}
	if id, ok := call.Args[0].(*ast.Ident); ok {
		return id.Name, id
	}
	return "", nil
}

// declaredWithin reports whether the object id refers to is declared
// inside the range statement (loop-local accumulators reset every
// iteration).
func declaredWithin(pkg *Package, id *ast.Ident, rs *ast.RangeStmt) bool {
	obj := pkg.Info.Uses[id]
	if obj == nil {
		obj = pkg.Info.Defs[id]
	}
	if obj == nil {
		return false
	}
	return obj.Pos() >= rs.Pos() && obj.Pos() < rs.End()
}

// sortedAfter reports whether any statement after the range loop (in
// its enclosing block) passes the named slice to a sort — sort.*,
// slices.*, or any call whose callee name mentions Sort.
func sortedAfter(pkg *Package, f *ast.File, rs *ast.RangeStmt, target string) bool {
	rest := enclosingBlockAfter(f, rs)
	for _, stmt := range rest {
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !isSortCall(pkg, call) {
				return true
			}
			for _, arg := range call.Args {
				if mentionsIdent(arg, target) {
					found = true
					return false
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

func isSortCall(pkg *Package, call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok && isPkgName(pkg, id) &&
			(id.Name == "sort" || id.Name == "slices") {
			return true
		}
		return strings.Contains(fun.Sel.Name, "Sort") || strings.Contains(fun.Sel.Name, "sort")
	case *ast.Ident:
		return strings.Contains(fun.Name, "Sort") || strings.Contains(fun.Name, "sort")
	}
	return false
}

func mentionsIdent(e ast.Expr, name string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			found = true
			return false
		}
		return true
	})
	return found
}
