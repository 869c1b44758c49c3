package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ruleAllocStatic is the static half of the repo's allocation budget:
// functions reachable from the budget-tested hot entry points must
// not contain allocation sites that the runtime gates (testing.
// AllocsPerRun budgets, the 0-alloc disabled-telemetry benchmark)
// would catch only after the regression lands. The entry points are
// the simulation driver and the translation fast paths:
//
//	<module>.SimulateWith
//	<module>/internal/tlbcache.Cache.Lookup / .Insert
//	<module>/internal/xlate.Service.Lookup / .Insert /
//	                          .LookupMany / .InsertMany
//
// Reachability runs over static call and reference edges. Interface
// dispatch is followed only to unexported methods: those can satisfy
// only an interface of their own package, so the fan-out is exactly
// that package's implementers (a package-local seam such as the
// simulator's design interface), whereas exported method names would
// pull in every implementer of common names module-wide. Constructor-shaped
// functions (New*) and validation (Validate) are stop nodes: reachable
// code may call them off the fast path, but their bodies are not
// audited. The xlate entries have one path with and without telemetry,
// so the sink's hooks, window fold and sampled-chain code are audited
// with them.
//
// Flagged allocation sites: fmt.* calls (except fmt.Errorf feeding a
// return, and anything building a panic message), non-constant string
// concatenation, map creation, append to a slice that was declared
// locally without preallocated capacity, closures that capture
// variables, and conversions of non-pointer concrete values to
// module-declared interfaces (boxing).
func ruleAllocStatic() Rule {
	return Rule{
		Name: "allocstatic",
		Doc:  "functions reachable from budget-tested hot entry points may not contain static allocation sites",
		Check: func(prog *Program, pkg *Package) []Finding {
			a := prog.analysis()
			if a.allocFindings == nil {
				a.allocFindings = computeAllocFindings(prog, a)
			}
			return a.allocFindings[pkg.ImportPath]
		},
	}
}

// hotEntryIDs names the budget-tested entry points, relative to the
// module root.
func hotEntryIDs(module string) []string {
	return []string{
		module + ".SimulateWith",
		module + "/internal/tlbcache.Cache.Lookup",
		module + "/internal/tlbcache.Cache.Insert",
		module + "/internal/xlate.Service.Lookup",
		module + "/internal/xlate.Service.Insert",
		module + "/internal/xlate.Service.LookupMany",
		module + "/internal/xlate.Service.InsertMany",
	}
}

// allocStopNames are functions whose bodies the reachability walk
// does not enter.
var allocStopNames = map[string]bool{
	"Validate": true,
}

func isAllocStop(n *FuncNode) bool {
	name := n.Obj.Name()
	return strings.HasPrefix(name, "New") || allocStopNames[name]
}

// computeAllocFindings walks the hot set and audits each member.
func computeAllocFindings(prog *Program, a *analysis) map[string][]Finding {
	// BFS from the entries over static edges, recording for each
	// reached function one entry point it is reachable from (for the
	// finding message).
	rootOf := map[*FuncNode]string{}
	var queue []*FuncNode
	for _, id := range hotEntryIDs(prog.Module) {
		if n := a.graph.ByID[id]; n != nil {
			rootOf[n] = id
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Calls {
			c := e.Callee
			if c == nil || isAllocStop(c) || (e.Kind == EdgeIface && c.Obj.Exported()) {
				continue
			}
			if _, seen := rootOf[c]; !seen {
				rootOf[c] = rootOf[n]
				queue = append(queue, c)
			}
		}
	}

	findings := map[string][]Finding{}
	for _, n := range a.graph.sortedNodes() {
		root, hot := rootOf[n]
		if !hot {
			continue
		}
		for _, f := range allocSites(n, root) {
			findings[n.Pkg.ImportPath] = append(findings[n.Pkg.ImportPath], f)
		}
	}
	return findings
}

// allocSites scans one hot function's body for static allocations.
func allocSites(n *FuncNode, root string) []Finding {
	pkg := n.Pkg
	var out []Finding
	report := func(pos token.Pos, what string) {
		out = append(out, Finding{
			Rule: "allocstatic", Pos: pkg.Fset.Position(pos),
			Msg: fmt.Sprintf("%s on hot path (reachable from %s)", what, root),
		})
	}
	unprealloc := unpreallocatedSlices(pkg, n.Decl.Body)
	walkStack(fileOfDecl(n), func(stack []ast.Node, x ast.Node) {
		if !within(n.Decl.Body, x) || underGoStmt(stack, n.Decl.Body) {
			return
		}
		switch x := x.(type) {
		case *ast.CallExpr:
			if path, name, ok := pkg.calleePkgFunc(x); ok && path == "fmt" {
				if name == "Errorf" && (underReturn(stack) || assignsErrorVar(pkg, stack)) {
					return // error construction is by definition the failure path
				}
				if underPanic(stack, pkg) {
					return // panic messages never run on the measured path
				}
				report(x.Pos(), "fmt."+name+" call")
				return
			}
			if id, ok := x.Fun.(*ast.Ident); ok {
				switch id.Name {
				case "make":
					if len(x.Args) > 0 {
						if t := pkg.typeOf(x.Args[0]); t != nil {
							if _, isMap := types.Unalias(t).Underlying().(*types.Map); isMap {
								report(x.Pos(), "map creation")
							}
						}
					}
				case "append":
					if len(x.Args) > 0 {
						if v := fieldOrVarOf(pkg, x.Args[0]); v != nil && unprealloc[v] {
							report(x.Pos(), fmt.Sprintf("append to %s, declared without preallocated capacity", v.Name()))
						}
					}
				}
			}
			// Conversion to a module interface boxes a concrete value.
			if t := pkg.typeOf(x.Fun); t != nil && len(x.Args) == 1 {
				if tv, ok := pkg.TypesInfo.Types[x.Fun]; ok && tv.IsType() {
					if _, isIface := types.Unalias(t).Underlying().(*types.Interface); isIface {
						argT := pkg.typeOf(x.Args[0])
						if argT != nil {
							if _, isPtr := types.Unalias(argT).(*types.Pointer); !isPtr {
								report(x.Pos(), fmt.Sprintf("conversion to interface %s boxes its operand", types.TypeString(t, nil)))
							}
						}
					}
				}
			}
		case *ast.BinaryExpr:
			if x.Op != token.ADD {
				return
			}
			if tv, ok := pkg.TypesInfo.Types[x]; ok && tv.Value == nil && tv.Type != nil {
				if b, ok := types.Unalias(tv.Type).Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
					if underPanic(stack, pkg) {
						return
					}
					report(x.Pos(), "string concatenation")
				}
			}
		case *ast.CompositeLit:
			if t := pkg.typeOf(x); t != nil {
				if _, isMap := types.Unalias(t).Underlying().(*types.Map); isMap {
					report(x.Pos(), "map literal")
				}
			}
		case *ast.FuncLit:
			// Comparator closures handed straight to sort/slices are
			// exempt: the nodeterm rule requires those sorts, and the
			// idiomatic comparator necessarily captures the slice.
			if sortCallback(pkg, stack) {
				return
			}
			if capturesOutside(pkg, n, x) {
				report(x.Pos(), "closure capturing outer variables")
			}
		}
	})
	SortFindings(out)
	return out
}

// unpreallocatedSlices finds local slice variables declared with no
// backing capacity — `var buf []T` or `buf := []T{}` — whose appends
// therefore grow by reallocation. Slices built with make(_, n[, c])
// or received from callers are exempt: the capacity decision was made
// elsewhere.
func unpreallocatedSlices(pkg *Package, body *ast.BlockStmt) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	mark := func(id *ast.Ident, bad bool) {
		// The callers have already established the declaration shape
		// syntactically, so invalid element types (unresolved stdlib)
		// don't matter here.
		if v, ok := pkg.TypesInfo.Defs[id].(*types.Var); ok {
			out[v] = bad
		}
	}
	isSliceExpr := func(e ast.Expr) bool {
		arr, ok := e.(*ast.ArrayType)
		return ok && arr.Len == nil
	}
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.DeclStmt:
			gd, ok := x.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 {
					continue
				}
				if vs.Type != nil && isSliceExpr(vs.Type) {
					for _, name := range vs.Names {
						mark(name, true)
					}
				}
			}
		case *ast.AssignStmt:
			if x.Tok != token.DEFINE || len(x.Lhs) != len(x.Rhs) {
				return true
			}
			for i, lhs := range x.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				switch rhs := x.Rhs[i].(type) {
				case *ast.CompositeLit:
					if rhs.Type != nil && isSliceExpr(rhs.Type) && len(rhs.Elts) == 0 {
						mark(id, true)
					}
				case *ast.CallExpr:
					if fn, ok := rhs.Fun.(*ast.Ident); ok && fn.Name == "make" {
						mark(id, false)
					}
				}
			}
		}
		return true
	})
	return out
}

// underReturn reports whether the innermost statement ancestor is a
// return.
func underReturn(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.ReturnStmt:
			return true
		case ast.Stmt:
			return false
		}
	}
	return false
}

// assignsErrorVar reports whether the innermost enclosing statement
// assigns into an error-typed variable (err = fmt.Errorf(...), the
// wrap-and-fall-through form of error construction).
func assignsErrorVar(pkg *Package, stack []ast.Node) bool {
	errType := types.Universe.Lookup("error").Type()
	for i := len(stack) - 1; i >= 0; i-- {
		asn, ok := stack[i].(*ast.AssignStmt)
		if !ok {
			if _, isStmt := stack[i].(ast.Stmt); isStmt {
				return false
			}
			continue
		}
		for _, lhs := range asn.Lhs {
			if t := pkg.typeOf(lhs); t != nil && types.Identical(t, errType) {
				return true
			}
		}
		return false
	}
	return false
}

// sortCallback reports whether the node's direct parent is a call
// into the sort or slices packages (comparator argument position).
func sortCallback(pkg *Package, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	call, ok := stack[len(stack)-1].(*ast.CallExpr)
	if !ok {
		return false
	}
	path, _, ok := pkg.calleePkgFunc(call)
	return ok && (path == "sort" || path == "slices")
}

// underPanic reports whether an ancestor is a panic(...) call.
func underPanic(stack []ast.Node, pkg *Package) bool {
	for _, a := range stack {
		call, ok := a.(*ast.CallExpr)
		if !ok {
			continue
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
			switch pkg.TypesInfo.Uses[id].(type) {
			case nil, *types.Builtin:
				return true
			}
		}
	}
	return false
}

// capturesOutside reports whether lit references a variable declared
// in the enclosing function but outside the literal itself — the
// capture that forces the closure (and captured vars) to heap.
func capturesOutside(pkg *Package, n *FuncNode, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(x ast.Node) bool {
		id, ok := x.(*ast.Ident)
		if !ok {
			return !captured
		}
		if v, ok := pkg.TypesInfo.Uses[id].(*types.Var); ok && !v.IsField() {
			if v.Pos() >= n.Decl.Pos() && v.Pos() < lit.Pos() {
				captured = true
			}
		}
		return !captured
	})
	return captured
}

// sortFuncIDs renders a deterministic list of hot-set IDs (test
// helper).
func sortFuncIDs(set map[*FuncNode]string) []string {
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n.ID)
	}
	sort.Strings(out)
	return out
}
