package sched

import (
	"context"
	"errors"
	"fmt"

	"meetpoly/internal/rverr"
)

// This file keeps a lattice program that visits one cell at a time. It
// is the reference that the word-parallel row fill of CertifyCtx and
// WorstSchedule is compared against (TestCertifyMatchesReferenceDP,
// FuzzCertifyMatchesReference): every CertResult field, the error and
// the reconstructed schedule must agree.

// referenceCertifyCtx decides the lattice game one cell at a time,
// keeping two rows of one bit per cell.
func referenceCertifyCtx(ctx context.Context, routeA, routeB []int) (CertResult, error) {
	if len(routeA) == 0 || len(routeB) == 0 {
		return CertResult{}, fmt.Errorf("sched: Certify needs non-empty routes: %w", rverr.ErrInvalidScenario)
	}
	if routeA[0] == routeB[0] {
		return CertResult{}, fmt.Errorf("sched: agents must start at different nodes: %w", rverr.ErrInvalidScenario)
	}
	pb := 2 * (len(routeA) - 1) // max half-steps of A
	qb := 2 * (len(routeB) - 1)
	if pb == 0 && qb == 0 {
		// Neither agent ever moves and they start apart: trivial escape.
		return CertResult{Forced: false}, nil
	}

	blocked := referenceBlocked(routeA, routeB)

	words := (pb + 1 + 63) / 64
	prev := make([]uint64, words)
	cur := make([]uint64, words)
	get := func(row []uint64, p int) bool { return row[p/64]>>(uint(p)%64)&1 == 1 }
	set := func(row []uint64, p int) { row[p/64] |= 1 << (uint(p) % 64) }

	res := CertResult{Forced: true}
	note := func(p, q int) {
		// A blocked cell adjacent to a reachable one: the adversary can
		// steer the execution here and the meeting then happens with
		// these progress counts.
		completed := p/2 + q/2
		committed := (p+1)/2 + (q+1)/2
		if completed > res.WorstCompleted {
			res.WorstCompleted = completed
		}
		if committed > res.WorstCommitted {
			res.WorstCommitted = committed
		}
	}

	for q := 0; q <= qb; q++ {
		if ctx != nil && ctx.Err() != nil {
			return CertResult{}, fmt.Errorf("sched: certifier aborted at row %d/%d: %w (%w)",
				q, qb, rverr.ErrCanceled, ctx.Err())
		}
		for i := range cur {
			cur[i] = 0
		}
		for p := 0; p <= pb; p++ {
			reachableFrom := false
			if p == 0 && q == 0 {
				reachableFrom = true
			}
			if p > 0 && get(cur, p-1) {
				reachableFrom = true
			}
			if q > 0 && get(prev, p) {
				reachableFrom = true
			}
			if !reachableFrom {
				continue
			}
			if blocked(p, q) {
				note(p, q)
				continue
			}
			set(cur, p)
			if depth := p + q; depth > res.SafestDepth {
				res.SafestDepth = depth
			}
			if p == pb || q == qb {
				// The adversary can reach the budget frontier unmet:
				// no meeting is forced within these prefixes.
				res.Forced = false
				res.EscapeP, res.EscapeQ = p, q
			}
		}
		prev, cur = cur, prev
	}
	return res, nil
}

// referenceBlocked is the model's meeting predicate on lattice cells:
// both agents at one node, or both inside one edge going opposite ways.
func referenceBlocked(routeA, routeB []int) func(p, q int) bool {
	return func(p, q int) bool {
		if p%2 == 0 && q%2 == 0 {
			return routeA[p/2] == routeB[q/2]
		}
		if p%2 == 1 && q%2 == 1 {
			i, j := (p-1)/2, (q-1)/2
			return routeA[i] == routeB[j+1] && routeA[i+1] == routeB[j]
		}
		return false
	}
}

// referenceWorstSchedule certifies with referenceCertifyCtx, rebuilds
// the whole reachability grid cell by cell, and walks back from the
// first blocked cell of maximum completed cost, preferring agent 0.
func referenceWorstSchedule(routeA, routeB []int) ([]int, CertResult, error) {
	res, err := referenceCertifyCtx(context.Background(), routeA, routeB)
	if err != nil {
		return nil, CertResult{}, err
	}
	if !res.Forced {
		return nil, res, errors.New("sched: no meeting forced within these prefixes")
	}
	pb := 2 * (len(routeA) - 1)
	qb := 2 * (len(routeB) - 1)
	blocked := referenceBlocked(routeA, routeB)

	// Full reachability grid, one bit per cell.
	w := pb + 1
	h := qb + 1
	reach := make([]uint64, (w*h+63)/64)
	get := func(p, q int) bool {
		idx := q*w + p
		return reach[idx/64]>>(uint(idx)%64)&1 == 1
	}
	set := func(p, q int) {
		idx := q*w + p
		reach[idx/64] |= 1 << (uint(idx) % 64)
	}
	for q := 0; q <= qb; q++ {
		for p := 0; p <= pb; p++ {
			from := p == 0 && q == 0 ||
				(p > 0 && get(p-1, q)) || (q > 0 && get(p, q-1))
			if from && !blocked(p, q) {
				set(p, q)
			}
		}
	}

	// The target: the blocked cell with the highest meeting cost that has
	// a reachable predecessor.
	bestP, bestQ, bestCost := -1, -1, -1
	for q := 0; q <= qb; q++ {
		for p := 0; p <= pb; p++ {
			if !blocked(p, q) {
				continue
			}
			if (p > 0 && get(p-1, q)) || (q > 0 && get(p, q-1)) {
				if cost := p/2 + q/2; cost > bestCost {
					bestP, bestQ, bestCost = p, q, cost
				}
			}
		}
	}
	if bestCost != res.WorstCompleted {
		panic(fmt.Sprintf("sched: reference reconstruction found worst %d, certifier %d",
			bestCost, res.WorstCompleted))
	}

	// Walk back from the target through reachable predecessors.
	var rev []int
	p, q := bestP, bestQ
	// First, the final step into the blocked cell.
	switch {
	case p > 0 && get(p-1, q):
		rev = append(rev, 0)
		p--
	case q > 0 && get(p, q-1):
		rev = append(rev, 1)
		q--
	}
	for p > 0 || q > 0 {
		if p > 0 && get(p-1, q) {
			rev = append(rev, 0)
			p--
			continue
		}
		if q > 0 && get(p, q-1) {
			rev = append(rev, 1)
			q--
			continue
		}
		panic("sched: broken predecessor chain in reference reconstruction")
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, res, nil
}
