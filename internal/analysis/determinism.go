package analysis

import (
	"flag"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strconv"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// DeterminismAnalyzer flags nondeterminism sources in result-producing
// packages: wall-clock reads, the global math/rand source, map
// iteration feeding ordered output, and fmt formatting of raw pointer
// values (whose text is an address, different every run). Every cell of
// a sweep must be a pure function of its seed string "<seed>#<index>";
// any of these constructs silently breaks replay, the golden report and
// the differential oracles.
var DeterminismAnalyzer = &analysis.Analyzer{
	Name:     "determinism",
	Doc:      "flag nondeterminism sources (time, global rand, map order, pointer formatting) in result-producing packages",
	Flags:    determinismFlags(),
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runDeterminism,
}

// determinismPkgs is the package-path regexp the analyzer applies to.
// The default is the engine's result-producing set: every package whose
// outputs end up in a SweepReport or a seed string.
var determinismPkgs string

func determinismFlags() flag.FlagSet {
	fs := flag.NewFlagSet("determinism", flag.ExitOnError)
	fs.StringVar(&determinismPkgs,
		"pkgs",
		`^meetpoly$|^meetpoly/internal/(sched|campaign|costmodel|core|baseline|esst|sgl|trajectory|lazyrand)$`,
		"regexp of package paths the determinism rules apply to")
	return *fs
}

// bannedRandFuncs are the math/rand (and v2) package-level functions
// that draw from the global source. Constructors taking an explicit
// seeded source remain legal.
var allowedRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// orderedSinks are method/function names that emit elements in call
// order; invoking one inside a map-range loop serializes map iteration
// order.
var orderedSinks = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Sprint": true, "Sprintf": true, "Sprintln": true,
	"Encode": true, "Write": true, "WriteString": true, "WriteByte": true,
	"WriteRune": true, "Append": true, "Appendf": true, "Appendln": true,
}

func runDeterminism(pass *analysis.Pass) (any, error) {
	re, err := regexp.Compile(determinismPkgs)
	if err != nil {
		return nil, err
	}
	if !re.MatchString(pass.Pkg.Path()) {
		return nil, nil
	}
	rep := newReporter(pass, "determinism")
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	ins.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		if inTestFile(pass.Fset, n.Pos()) {
			return
		}
		call := n.(*ast.CallExpr)
		fn := calleeFunc(pass.TypesInfo, call)
		if fn == nil {
			return
		}
		checkTimeCall(rep, call, fn)
		checkRandCall(rep, call, fn)
		checkFmtPointer(pass, rep, call, fn)
	})

	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		decl := n.(*ast.FuncDecl)
		if decl.Body == nil || inTestFile(pass.Fset, decl.Pos()) {
			return
		}
		checkMapOrder(pass, rep, decl.Body)
	})
	return nil, nil
}

// checkTimeCall flags wall-clock and timer reads: their values differ
// between runs of the same seed.
func checkTimeCall(rep reportfer, call *ast.CallExpr, fn *types.Func) {
	switch fn.Name() {
	case "Now", "Since", "Until", "After", "Tick", "NewTimer", "NewTicker":
		if isPkgFunc(fn, "time", fn.Name()) {
			rep.reportf(call.Pos(), "call to time.%s: wall-clock input makes results irreproducible from the seed string", fn.Name())
		}
	}
}

// checkRandCall flags draws from the process-global math/rand source,
// whose stream depends on every other draw in the process.
func checkRandCall(rep reportfer, call *ast.CallExpr, fn *types.Func) {
	pkg := fn.Pkg()
	if pkg == nil || (pkg.Path() != "math/rand" && pkg.Path() != "math/rand/v2") {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods on an explicit *rand.Rand are seeded and fine
	}
	if allowedRandFuncs[fn.Name()] {
		return
	}
	rep.reportf(call.Pos(), "call to global %s.%s: use a rand.New(rand.NewSource(seed)) derived from the cell seed instead", pkg.Path(), fn.Name())
}

// fmtVerbatim are the fmt functions whose arguments are rendered with
// default verbs; fmtFormatted take a leading format string.
var fmtFormatted = map[string]int{
	"Sprintf": 0, "Printf": 0, "Errorf": 0,
	"Fprintf": 1, "Appendf": 1, "Fscanf": -1, // Fscanf never formats output
}
var fmtVerbatim = map[string]int{
	"Sprint": 0, "Sprintln": 0, "Print": 0, "Println": 0,
	"Fprint": 1, "Fprintln": 1, "Append": 1, "Appendln": 1,
}

// checkFmtPointer flags %p verbs and raw pointer/chan/func arguments to
// fmt calls: they render as addresses, which change run to run.
func checkFmtPointer(pass *analysis.Pass, rep *reporter, call *ast.CallExpr, fn *types.Func) {
	if fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
		return
	}
	if start, ok := fmtFormatted[fn.Name()]; ok && start >= 0 {
		if len(call.Args) > start {
			if lit, ok := ast.Unparen(call.Args[start]).(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil && strings.Contains(s, "%p") {
					rep.reportf(call.Pos(), "fmt.%s formats a pointer address (%%p), which differs between identically-seeded runs", fn.Name())
				}
			}
		}
		checkPointerArgs(pass, rep, fn.Name(), call.Args[min(start+1, len(call.Args)):])
		return
	}
	if start, ok := fmtVerbatim[fn.Name()]; ok {
		checkPointerArgs(pass, rep, fn.Name(), call.Args[min(start, len(call.Args)):])
	}
}

func checkPointerArgs(pass *analysis.Pass, rep *reporter, fname string, args []ast.Expr) {
	for _, a := range args {
		t := pass.TypesInfo.TypeOf(a)
		if t == nil || !isAddressKind(t) || formatsAsValue(t) {
			continue
		}
		rep.reportf(a.Pos(), "fmt.%s argument of type %s renders as a memory address; format its contents (or give it a String method)", fname, t)
	}
}

// isAddressKind reports whether values of t render as an address under
// default fmt verbs.
func isAddressKind(t types.Type) bool {
	switch types.Unalias(t).Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Signature:
		return true
	}
	return false
}

// formatsAsValue reports whether fmt would call a user-defined
// formatter instead of printing the address.
func formatsAsValue(t types.Type) bool {
	for _, name := range [...]string{"String", "Error", "Format"} {
		obj, _, _ := types.LookupFieldOrMethod(t, true, nil, name)
		if f, ok := obj.(*types.Func); ok {
			switch name {
			case "String", "Error":
				sig := f.Type().(*types.Signature)
				if sig.Params().Len() == 0 && sig.Results().Len() == 1 &&
					types.Identical(sig.Results().At(0).Type(), types.Typ[types.String]) {
					return true
				}
			case "Format":
				return true // fmt.Formatter-ish; give it the benefit of the doubt
			}
		}
	}
	return false
}

// checkMapOrder flags map-range loops whose iteration order becomes
// observable: direct writes to an ordered sink inside the loop, or a
// slice built by the loop that is not sorted before the function ends.
func checkMapOrder(pass *analysis.Pass, rep *reporter, body *ast.BlockStmt) {
	// appendTarget records one slice fed from inside a map-range loop.
	type appendTarget struct {
		expr string    // canonical text of the append target
		pos  token.Pos // report position
	}
	var targets []appendTarget
	sorted := map[string]bool{}

	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypesInfo.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := types.Unalias(t).Underlying().(*types.Map); !isMap {
			return true
		}
		ast.Inspect(rng.Body, func(m ast.Node) bool {
			switch x := m.(type) {
			case *ast.CallExpr:
				if fn := calleeFunc(pass.TypesInfo, x); fn != nil && orderedSinks[fn.Name()] {
					rep.reportf(x.Pos(), "map iteration order reaches %s.%s; iterate sorted keys instead", pkgOrRecv(fn), fn.Name())
				}
				if isBuiltin(pass.TypesInfo, x, "append") && len(x.Args) > 0 {
					targets = append(targets, appendTarget{expr: exprString(x.Args[0]), pos: x.Pos()})
				}
			}
			return true
		})
		return true
	})
	if len(targets) == 0 {
		return
	}
	// A later sort of the same expression launders the order.
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "sort", "slices":
		default:
			return true
		}
		if !strings.HasPrefix(fn.Name(), "Sort") && fn.Name() != "Slice" && fn.Name() != "SliceStable" &&
			fn.Name() != "Strings" && fn.Name() != "Ints" && fn.Name() != "Float64s" && fn.Name() != "Stable" {
			return true
		}
		if len(call.Args) > 0 {
			sorted[exprString(call.Args[0])] = true
		}
		return true
	})
	for _, t := range targets {
		if !sorted[t.expr] {
			rep.reportf(t.pos, "slice %s is built from map iteration order and never sorted; order differs between runs", t.expr)
		}
	}
}

// pkgOrRecv names the callee's home for diagnostics: its receiver type
// for methods, its package otherwise.
func pkgOrRecv(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return strings.TrimPrefix(sig.Recv().Type().String(), "*")
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name()
	}
	return "?"
}

// exprString renders an expression for structural comparison.
func exprString(e ast.Expr) string {
	return types.ExprString(ast.Unparen(e))
}
