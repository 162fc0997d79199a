package analysis

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// HotAllocAnalyzer guards the scheduler's allocation-free hot path. A
// function annotated
//
//	//rvlint:hotpath
//
// in its doc comment must contain no allocation source: the half-step
// dispatch loop ran ~17ns/event with ~0.002 allocs/event when the
// analyzer was written, and a single fmt call or escaping append in it
// erases that floor. TestPerfGates catches regressions when the tests
// run; this analyzer catches them in review.
//
// Flagged constructs: fmt.* calls, make/new, slice and map literals,
// &composite literals, append, string concatenation and string<->[]byte
// conversions, closures, go statements, defers, and interface boxing of
// non-pointer values (call arguments and assignments). Cold branches
// inside a hot function (validation panics, error paths) belong in a
// separate un-annotated function; genuinely amortized allocations (a
// reused buffer that grows to a steady-state size) carry a
// //lint:allow hotalloc with a justification.
//
// The check is lexical and per-function: calls out of the hot function
// are not followed — annotate every function on the per-event path.
var HotAllocAnalyzer = &analysis.Analyzer{
	Name:     "hotalloc",
	Doc:      "flag allocation sources inside functions annotated //rvlint:hotpath",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runHotAlloc,
}

func runHotAlloc(pass *analysis.Pass) (any, error) {
	rep := newReporter(pass, "hotalloc")
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		decl := n.(*ast.FuncDecl)
		if decl.Body == nil || !funcHasDirective(decl, "rvlint:hotpath") {
			return
		}
		checkHotBody(pass, rep, decl)
	})
	return nil, nil
}

func checkHotBody(pass *analysis.Pass, rep *reporter, decl *ast.FuncDecl) {
	info := pass.TypesInfo
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			rep.reportf(x.Pos(), "hotpath: closure literal allocates; hoist it or restructure")
			return false
		case *ast.GoStmt:
			rep.reportf(x.Pos(), "hotpath: go statement allocates a goroutine")
		case *ast.DeferStmt:
			rep.reportf(x.Pos(), "hotpath: defer in a hot function adds per-call overhead and may allocate")
		case *ast.CompositeLit:
			switch types.Unalias(info.TypeOf(x)).Underlying().(type) {
			case *types.Slice, *types.Map:
				rep.reportf(x.Pos(), "hotpath: slice/map literal allocates")
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					rep.reportf(x.Pos(), "hotpath: &composite literal escapes to the heap")
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD {
				if t := info.TypeOf(x.X); t != nil {
					if b, ok := types.Unalias(t).Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						rep.reportf(x.Pos(), "hotpath: string concatenation allocates")
					}
				}
			}
		case *ast.CallExpr:
			checkHotCall(pass, rep, x)
		case *ast.AssignStmt:
			for i, rhs := range x.Rhs {
				if len(x.Lhs) != len(x.Rhs) {
					break
				}
				checkBoxing(pass, rep, info.TypeOf(x.Lhs[i]), rhs, "assignment to interface")
			}
		}
		return true
	})
}

func checkHotCall(pass *analysis.Pass, rep *reporter, call *ast.CallExpr) {
	info := pass.TypesInfo
	switch {
	case isBuiltin(info, call, "make"):
		rep.reportf(call.Pos(), "hotpath: make allocates")
		return
	case isBuiltin(info, call, "new"):
		rep.reportf(call.Pos(), "hotpath: new allocates")
		return
	case isBuiltin(info, call, "append"):
		rep.reportf(call.Pos(), "hotpath: append may grow and allocate; pre-size the buffer outside the hot path")
		return
	}
	// Conversions: string <-> []byte/[]rune copy.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to, from := tv.Type, info.TypeOf(call.Args[0])
		if isStringByteConv(to, from) {
			rep.reportf(call.Pos(), "hotpath: string/[]byte conversion copies and allocates")
		}
		return
	}
	if fn := calleeFunc(info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		rep.reportf(call.Pos(), "hotpath: fmt.%s allocates; move formatting to a cold helper", fn.Name())
		return // don't also flag the boxed arguments of the same call
	}
	// Interface boxing of call arguments.
	sigT := info.TypeOf(call.Fun)
	if sigT == nil {
		return
	}
	sig, ok := types.Unalias(sigT).Underlying().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		if sig.Variadic() && i >= sig.Params().Len()-1 {
			last := sig.Params().At(sig.Params().Len() - 1).Type()
			if s, ok := types.Unalias(last).Underlying().(*types.Slice); ok {
				pt = s.Elem()
			}
		} else if i < sig.Params().Len() {
			pt = sig.Params().At(i).Type()
		}
		checkBoxing(pass, rep, pt, arg, "argument boxed into interface")
	}
}

// checkBoxing reports a concrete non-pointer value converted to an
// interface type: the value is copied to the heap to fit behind the
// interface word.
func checkBoxing(pass *analysis.Pass, rep *reporter, dst types.Type, src ast.Expr, what string) {
	if dst == nil {
		return
	}
	if _, ok := types.Unalias(dst).Underlying().(*types.Interface); !ok {
		return
	}
	st := pass.TypesInfo.TypeOf(src)
	if st == nil {
		return
	}
	st = types.Unalias(st)
	switch st.Underlying().(type) {
	case *types.Interface, *types.Pointer:
		return // already boxed, or pointer-shaped (fits the iface word)
	case *types.Basic:
		if st.Underlying().(*types.Basic).Kind() == types.UntypedNil {
			return
		}
	}
	rep.reportf(src.Pos(), "hotpath: %s (%s) copies the value to the heap", what, st)
}

func isStringByteConv(to, from types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := types.Unalias(t).Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isBytes := func(t types.Type) bool {
		s, ok := types.Unalias(t).Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := types.Unalias(s.Elem()).Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStr(to) && isBytes(from)) || (isBytes(to) && isStr(from))
}
