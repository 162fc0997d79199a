package sched

import (
	"context"
	"fmt"
	"math/bits"

	"meetpoly/internal/rverr"
)

// Certify is the exhaustive two-agent adversary: a dynamic program that
// decides whether ANY schedule — any interleaving of half-steps,
// including arbitrarily delayed wake-ups — lets two agents follow the
// given route prefixes without a forced meeting.
//
// Until their first meeting two rendezvous agents are non-interacting, so
// their routes are fixed node sequences computable offline; the adversary
// game then becomes reachability on the (half-steps of A) x (half-steps
// of B) lattice. Cell (p, q) encodes A having made p half-steps (even:
// at node p/2 of its route; odd: inside edge (p-1)/2 -> (p+1)/2) and
// symmetrically for B. A cell is blocked — a meeting is forced there —
// exactly under the model's two meeting predicates: same node (both
// even), or same edge in opposite directions (both odd). The adversary
// may move right or up; diagonal (truly simultaneous) transitions add no
// dodging power because a simultaneous pair of events either contains no
// meeting in some serialization or meets in both (DESIGN.md §2.2).
//
// Certify therefore returns the exact worst case over ALL walks the
// continuous adversary could choose for these route prefixes.
func Certify(routeA, routeB []int) (CertResult, error) {
	return CertifyCtx(context.Background(), routeA, routeB)
}

// CertifyCtx is Certify with cancellation. The lattice is still
// quadratic in the route prefix, but the dynamic program decides 64
// cells per word operation: each row of the lattice is a bitset over A's
// half-steps, filled rightward by one multi-word addition (DESIGN.md
// §2.2). It checks ctx every 64 rows and returns an error wrapping
// rverr.ErrCanceled when aborted mid-run.
func CertifyCtx(ctx context.Context, routeA, routeB []int) (CertResult, error) {
	l, err := fillLattice(ctx, routeA, routeB, false)
	return l.res, err
}

// lattice is the outcome of one row fill, shared by CertifyCtx and
// WorstSchedule.
type lattice struct {
	res   CertResult
	words int // words per row
	// rows holds the reachable cells of every filled row, row q at
	// rows[q*words:(q+1)*words]; only WorstSchedule keeps them.
	rows []uint64
	// tp, tq is the first blocked cell of maximum completed cost with a
	// reachable neighbour, in row-major order: where a forced schedule
	// meets at the worst cost.
	tp, tq int
}

// fillLattice solves the lattice game row by row. Row q is a bitset over
// A's half-steps p. Its free cells F are the valid cells that no meeting
// blocks, and its seeds S = prev ∧ F are the free cells reachable from
// the row below. The reachable cells are S filled rightward through runs
// of F: one carry chain of F + S sets the carry into every cell from
// each run's lowest seed to one past the run's end, so the row is
// S ∨ (F ∧ ((F + S) ⊕ F ⊕ S)). The blocked cells with a reachable
// neighbour, N = blocked ∧ (prev ∨ row≪1), are where the adversary can
// force the meeting; every CertResult field reads off the highest set
// bit of N or of the row.
//
// With keepRows it also keeps every row (one bit per cell, as far as the
// fill goes) for WorstSchedule's walk back; it drops them once an escape
// shows that no schedule is forced.
func fillLattice(ctx context.Context, routeA, routeB []int, keepRows bool) (lattice, error) {
	if len(routeA) == 0 || len(routeB) == 0 {
		return lattice{}, fmt.Errorf("sched: Certify needs non-empty routes: %w", rverr.ErrInvalidScenario)
	}
	if routeA[0] == routeB[0] {
		return lattice{}, fmt.Errorf("sched: agents must start at different nodes: %w", rverr.ErrInvalidScenario)
	}
	pb := 2 * (len(routeA) - 1) // max half-steps of A
	qb := 2 * (len(routeB) - 1)
	if pb == 0 && qb == 0 {
		// Neither agent ever moves and they start apart: trivial escape.
		return lattice{}, nil
	}
	words := pb/64 + 1                        // ⌈(pb+1)/64⌉
	valid := ^uint64(0) >> (63 - uint(pb)%64) // the cells of a row's last word

	// Blocked masks come from node masks alone: bit 2i of node v's mask
	// is set where routeA[i] == v. Each mask is followed by a zero word
	// for the odd rows' right shift, and mask 0 stays zero for the nodes B
	// visits off A's prefix. Memory is (distinct nodes on A's prefix + 1)
	// × (words + 1), three rows and an index over A's node IDs, never
	// quadratic.
	stride := words + 1
	lo, hi := routeA[0], routeA[0]
	for _, v := range routeA[1:] {
		lo, hi = min(lo, v), max(hi, v)
	}
	offset := make([]int, hi-lo+1) // node v's mask at masks[offset[v-lo]:]
	nodes := 0
	for _, v := range routeA {
		if offset[v-lo] == 0 {
			nodes++
			offset[v-lo] = nodes * stride
		}
	}
	buf := make([]uint64, (nodes+1)*stride+3*words)
	masks := buf[:(nodes+1)*stride]
	prev := buf[(nodes+1)*stride:][:words]
	cur := buf[(nodes+1)*stride+words:][:words]
	odd := buf[(nodes+1)*stride+2*words:][:words]
	for i, v := range routeA {
		masks[offset[v-lo]+i/32] |= 1 << (2 * uint(i) % 64)
	}
	mask := func(v int) []uint64 {
		o := 0
		if v >= lo && v <= hi {
			o = offset[v-lo]
		}
		return masks[o : o+stride]
	}

	l := lattice{res: CertResult{Forced: true}, words: words}
	res := &l.res
	best := -1
	// The origin seeds row 0 as if reached from below; it is never
	// blocked because the starts differ.
	prev[0] = 1
	// Reachable cells never move left (seeds come from the row below and
	// fill rightward), so words below lw are zero in every later row.
	lw := 0
	for q := 0; q <= qb; q++ {
		// A cancelCtx's Err takes a mutex, which costs about as much as a
		// short row, so the check runs every 64 rows.
		if q%64 == 0 && ctx != nil && ctx.Err() != nil {
			return lattice{}, fmt.Errorf("sched: certifier aborted at row %d/%d: %w (%w)",
				q, qb, rverr.ErrCanceled, ctx.Err())
		}
		// An even row blocks where A is at B's node. On an odd row
		// q = 2j+1, B is inside routeB[j] → routeB[j+1], and A is inside
		// the reverse edge at bit 2i+1 exactly when A is at routeB[j+1]
		// at bit 2i and at routeB[j] at bit 2i+2. Node masks set even
		// bits only, so the left shift carries nothing across words.
		at := mask(routeB[q/2])
		blocked := at[:words]
		if q%2 == 1 {
			to := mask(routeB[q/2+1])
			for k := lw; k < words; k++ {
				odd[k] = to[k] << 1 & (at[k]>>1 | at[k+1]<<63)
			}
			blocked = odd
		}
		nHi, nTop := fillRow(cur[lw:], prev[lw:], blocked[lw:])
		// The fill may run on past cell pb inside the last word.
		cur[words-1] &= valid
		if nHi >= 0 {
			// A blocked cell adjacent to a reachable one: the adversary can
			// steer the execution here and the meeting then happens with
			// these progress counts. Both counts grow with p, so the
			// highest such cell h of the row bounds them. Blocked cells
			// share q's parity, so h is also the row's first cell of its
			// cost.
			h := 64*(lw+nHi) + 63 - bits.LeadingZeros64(nTop)
			completed := h/2 + q/2
			res.WorstCompleted = max(res.WorstCompleted, completed)
			res.WorstCommitted = max(res.WorstCommitted, (h+1)/2+(q+1)/2)
			if completed > best {
				best, l.tp, l.tq = completed, h, q
			}
		}
		if keepRows {
			l.rows = append(l.rows, cur...)
		}
		rowHi := words - 1
		for rowHi >= lw && cur[rowHi] == 0 {
			rowHi--
		}
		if rowHi < lw {
			// No reachable cell: every later row is empty too.
			break
		}
		h := 64*rowHi + 63 - bits.LeadingZeros64(cur[rowHi])
		res.SafestDepth = max(res.SafestDepth, h+q)
		if h == pb || q == qb {
			// The adversary can reach the budget frontier unmet: no
			// meeting is forced within these prefixes. The last row that
			// reaches it names the escape.
			res.Forced = false
			res.EscapeP, res.EscapeQ = h, q
			l.rows, keepRows = nil, false
		}
		// Clearing the skipped words of the other buffer keeps every kept
		// row exact below lw.
		for cur[lw] == 0 {
			prev[lw] = 0
			lw++
		}
		prev, cur = cur, prev
	}
	return l, nil
}

// fillRow sets cur to the cells reachable from the seeds prev ∧ ¬blocked,
// filled rightward through the free cells ¬blocked. It returns the
// highest word of N = blocked ∧ (prev ∨ cur≪1), the blocked cells with a
// reachable neighbour, and its index (-1 when N is empty). The fill may
// run past the row's last cell in its last word.
func fillRow(cur, prev, blocked []uint64) (nHi int, nTop uint64) {
	prev, blocked = prev[:len(cur)], blocked[:len(cur)]
	var carry, up uint64 // up: the top reachable cell of the word below
	nHi = -1
	for k := range cur {
		b, p := blocked[k], prev[k]
		free := ^b
		seed := p & free
		sum, c := bits.Add64(free, seed, carry)
		carry = c
		row := seed | free&(sum^free^seed)
		if n := b & (p | row<<1 | up); n != 0 {
			nHi, nTop = k, n
		}
		up = row >> 63
		cur[k] = row
	}
	return nHi, nTop
}

// CertResult is the verdict of the exhaustive adversary.
type CertResult struct {
	// Forced is true when every schedule meets strictly inside the
	// explored route prefixes.
	Forced bool
	// EscapeP/EscapeQ witness a frontier cell the adversary can reach
	// unmet (valid when !Forced).
	EscapeP, EscapeQ int
	// WorstCompleted is the maximum, over all schedules, of the total
	// completed edge traversals when the forced meeting happens.
	WorstCompleted int
	// WorstCommitted additionally counts traversals in progress at the
	// meeting (the agents finish them, per the model).
	WorstCommitted int
	// SafestDepth is the largest p+q over meeting-free reachable cells:
	// how long the best schedule survives, in half-steps.
	SafestDepth int
}

// String renders the verdict compactly.
func (c CertResult) String() string {
	if c.Forced {
		return fmt.Sprintf("forced{worst completed=%d committed=%d depth=%d}",
			c.WorstCompleted, c.WorstCommitted, c.SafestDepth)
	}
	return fmt.Sprintf("escape{p=%d q=%d depth=%d}", c.EscapeP, c.EscapeQ, c.SafestDepth)
}

// CyclicResult is the verdict of CertifyCyclic.
type CyclicResult struct {
	// Forced is true when agent A cannot complete its route, under any
	// schedule, without meeting the cycling agent B.
	Forced bool
	// MaxAHalfSteps is the largest progress (in half-steps) A reaches
	// unmet over all schedules; when Forced, the meeting happens before A
	// completes MaxAHalfSteps/2 + 1 edge traversals.
	MaxAHalfSteps int
}

// CertifyCyclic decides the asymmetric game behind Lemma 3.1: agent B
// repeats the closed walk cycleB forever (first and last node equal)
// while agent A follows routeA once. It returns whether every schedule
// forces a meeting before A completes its route. B's unbounded repetition
// is handled exactly by folding B's progress modulo its period, so no
// route-prefix frontier exists for the adversary to hide behind.
func CertifyCyclic(routeA, cycleB []int) (CyclicResult, error) {
	if len(routeA) < 2 {
		return CyclicResult{}, fmt.Errorf("sched: CertifyCyclic needs A to move: %w", rverr.ErrInvalidScenario)
	}
	if len(cycleB) < 2 || cycleB[0] != cycleB[len(cycleB)-1] {
		return CyclicResult{}, fmt.Errorf("sched: cycleB must be a closed walk: %w", rverr.ErrInvalidScenario)
	}
	if routeA[0] == cycleB[0] {
		return CyclicResult{}, fmt.Errorf("sched: agents must start at different nodes: %w", rverr.ErrInvalidScenario)
	}
	pb := 2 * (len(routeA) - 1)
	period := 2 * (len(cycleB) - 1) // half-steps per lap of B

	blocked := func(p, q int) bool {
		if p%2 == 0 && q%2 == 0 {
			return routeA[p/2] == cycleB[q/2]
		}
		if p%2 == 1 && q%2 == 1 {
			i, j := (p-1)/2, (q-1)/2
			return routeA[i] == cycleB[j+1] && routeA[i+1] == cycleB[j]
		}
		return false
	}

	// closure saturates a column under B's moves q -> (q+1) mod period.
	closure := func(p int, col []bool) {
		for lap := 0; lap < 2; lap++ {
			changed := false
			for q := 0; q < period; q++ {
				if col[q] && !col[(q+1)%period] && !blocked(p, (q+1)%period) {
					col[(q+1)%period] = true
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}

	col := make([]bool, period)
	if blocked(0, 0) {
		return CyclicResult{Forced: true}, nil
	}
	col[0] = true
	closure(0, col)
	res := CyclicResult{Forced: true}
	for p := 1; p <= pb; p++ {
		next := make([]bool, period)
		any := false
		for q := 0; q < period; q++ {
			if col[q] && !blocked(p, q) {
				next[q] = true
				any = true
			}
		}
		if !any {
			res.MaxAHalfSteps = p - 1
			return res, nil
		}
		closure(p, next)
		col = next
	}
	return CyclicResult{Forced: false, MaxAHalfSteps: pb}, nil
}
