// Package analysis is rvlint: a go/analysis suite that mechanically
// enforces the engine's correctness conventions. Every invariant here
// exists because one nondeterministic or aliasing code path silently
// breaks replayability — the property the whole oracle pipeline, the
// golden report and every differential test stand on.
//
// The five analyzers and the invariants they guard:
//
//   - determinism: result-producing packages must not consult wall
//     clocks, the global math/rand source, or map iteration order, and
//     must not format raw pointers into report strings. Per-cell results
//     are pure functions of the seed string "<seed>#<index>" (PR 2).
//   - viewretain: an adversary must not retain the scheduler's reused
//     sched.View buffer (or anything reachable from it) beyond one Next
//     call (PR 3/4's allocation-free view contract).
//   - hotalloc: functions annotated //rvlint:hotpath must contain no
//     allocation sources, guarding the ~17ns/0.002-allocs half-step
//     floor at review time, not only via TestPerfGates.
//   - registrypure: registry mutation happens only at init/package-var
//     time, and graph-kind Build implementations are free of global
//     mutable state, so registry fingerprints content-address the
//     prepared-scenario cache soundly (PR 5).
//   - snapshot: copy-on-write atomic-snapshot state (a struct pairing a
//     writer sync.Mutex with an atomic.Pointer snapshot, like
//     uxs.Verified and trajectory.Route) is published only under the
//     writer mutex, and pure read paths acquire no lock.
//
// A diagnostic can be suppressed with a
//
//	//lint:allow <rule>
//
// comment on the flagged line or the line directly above it; the rule
// name is the analyzer name. Suppressions are deliberate, reviewed
// exceptions — each one should say why in a trailing comment.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/types/typeutil"
)

// All returns the full rvlint analyzer suite in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		DeterminismAnalyzer,
		ViewRetainAnalyzer,
		HotAllocAnalyzer,
		RegistryPureAnalyzer,
		SnapshotAnalyzer,
	}
}

// allowIndex records, per file and line, the rules suppressed by
// //lint:allow comments.
type allowIndex map[*token.File]map[int][]string

// buildAllowIndex scans every comment in the pass for lint:allow
// directives.
func buildAllowIndex(pass *analysis.Pass) allowIndex {
	idx := make(allowIndex)
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:allow ")
				if !ok {
					continue
				}
				tf := pass.Fset.File(c.Pos())
				if tf == nil {
					continue
				}
				lines := idx[tf]
				if lines == nil {
					lines = make(map[int][]string)
					idx[tf] = lines
				}
				line := tf.Line(c.Pos())
				for _, rule := range strings.Fields(text) {
					lines[line] = append(lines[line], rule)
				}
			}
		}
	}
	return idx
}

// allowed reports whether rule is suppressed at pos: a //lint:allow on
// the same line or the line immediately above.
func (idx allowIndex) allowed(fset *token.FileSet, pos token.Pos, rule string) bool {
	tf := fset.File(pos)
	if tf == nil {
		return false
	}
	lines := idx[tf]
	if lines == nil {
		return false
	}
	line := tf.Line(pos)
	for _, l := range [2]int{line, line - 1} {
		for _, r := range lines[l] {
			if r == rule {
				return true
			}
		}
	}
	return false
}

// reportfer is the reporting surface the per-construct checks need;
// implemented by *reporter and by wrappers that decorate messages.
type reportfer interface {
	reportf(pos token.Pos, format string, args ...any)
}

// reporter wraps pass.Reportf with lint:allow suppression for one rule.
type reporter struct {
	pass  *analysis.Pass
	rule  string
	allow allowIndex
}

func newReporter(pass *analysis.Pass, rule string) *reporter {
	return &reporter{pass: pass, rule: rule, allow: buildAllowIndex(pass)}
}

func (r *reporter) reportf(pos token.Pos, format string, args ...any) {
	if r.allow.allowed(r.pass.Fset, pos, r.rule) {
		return
	}
	r.pass.Reportf(pos, format, args...)
}

// calleeFunc resolves the called function or method of a call, nil for
// builtins, conversions and dynamic calls through func values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fn, _ := typeutil.Callee(info, call).(*types.Func)
	return fn
}

// isPkgFunc reports whether fn is the package-level function
// pkgpath.name (methods never match).
func isPkgFunc(fn *types.Func, pkgpath, name string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Name() != name || fn.Pkg().Path() != pkgpath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// isBuiltin reports whether the call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := info.ObjectOf(id).(*types.Builtin)
	return ok && b.Name() == name
}

// namedIn reports whether t (after unaliasing and pointer-stripping) is
// a named type called typeName defined in a package named pkgName. The
// match is by package *name*, not path, so analysistest fixtures can
// stand in their own stub packages for internal ones.
func namedIn(t types.Type, pkgName, typeName string) bool {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == typeName && obj.Pkg() != nil && obj.Pkg().Name() == pkgName
}

// inTestFile reports whether pos lies in a _test.go file.
func inTestFile(fset *token.FileSet, pos token.Pos) bool {
	tf := fset.File(pos)
	return tf != nil && strings.HasSuffix(tf.Name(), "_test.go")
}

// funcHasDirective reports whether the function declaration carries the
// given //rvlint: directive in its doc comment.
func funcHasDirective(decl *ast.FuncDecl, directive string) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		if strings.TrimSpace(c.Text) == "//"+directive {
			return true
		}
	}
	return false
}

// rootIdent returns the leftmost identifier of a selector/index/star
// chain (x in x.f[i].g), or nil when the chain roots in a call or
// literal.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return nil
		}
	}
}
