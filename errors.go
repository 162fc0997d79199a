package meetpoly

import "meetpoly/internal/rverr"

// Typed sentinel errors. Every error returned by the Engine that falls
// into one of these classes wraps the corresponding sentinel, so
// callers dispatch with errors.Is
// regardless of which internal layer produced the failure:
//
//	res, err := eng.Run(ctx, sc)
//	switch {
//	case errors.Is(err, meetpoly.ErrBudgetExhausted): // raise sc.Budget
//	case errors.Is(err, meetpoly.ErrCanceled):        // ctx was canceled
//	case errors.Is(err, meetpoly.ErrInvalidScenario): // fix the descriptor
//	case errors.Is(err, meetpoly.ErrCatalogUncovered):// extend the catalog
//	}
var (
	// ErrBudgetExhausted: the run stopped at its event budget before
	// reaching its goal (meeting, coverage, or full SGL output). The
	// partial result is still returned alongside the error.
	ErrBudgetExhausted = rverr.ErrBudgetExhausted

	// ErrInvalidScenario: the scenario violates the model — duplicate
	// starts, non-positive or equal labels, unknown kinds, malformed
	// adversary specs, out-of-range nodes.
	ErrInvalidScenario = rverr.ErrInvalidScenario

	// ErrCatalogUncovered: the engine's verified catalog does not cover
	// the scenario's graph and WithAutoExtend(false) is in effect.
	ErrCatalogUncovered = rverr.ErrCatalogUncovered

	// ErrCanceled: the context was canceled mid-run. Errors wrapping
	// this sentinel also wrap the context's own error, so both
	// errors.Is(err, ErrCanceled) and errors.Is(err, context.Canceled)
	// hold.
	ErrCanceled = rverr.ErrCanceled
)
