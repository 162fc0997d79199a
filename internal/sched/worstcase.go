package sched

import (
	"context"
	"errors"
)

// WorstSchedule reconstructs, from the same lattice game Certify solves,
// an explicit worst-case schedule: the sequence of half-steps (agent 0 or
// agent 1) that survives as long as any schedule can and then walks into
// the latest possible forced meeting. It exists so that the certified
// worst case is not merely a number but an executable adversary —
// replaying the schedule through the runner must reproduce the certified
// meeting cost exactly (asserted by tests).
//
// It runs Certify's row fill once, keeping every row, and walks back
// from the first blocked cell of maximum completed cost in row-major
// order, preferring agent 0 at each step. It returns the schedule and
// the certified result. An error is returned when no meeting is forced
// within the prefixes (no worst case to realize).
func WorstSchedule(routeA, routeB []int) ([]int, CertResult, error) {
	l, err := fillLattice(context.Background(), routeA, routeB, true)
	if err != nil {
		return nil, CertResult{}, err
	}
	if !l.res.Forced {
		return nil, l.res, errors.New("sched: no meeting forced within these prefixes")
	}
	reached := func(p, q int) bool {
		return p >= 0 && q >= 0 && l.rows[q*l.words+p/64]>>(uint(p)%64)&1 == 1
	}
	p, q := l.tp, l.tq
	schedule := make([]int, p+q)
	for i := len(schedule) - 1; i >= 0; i-- {
		switch {
		case reached(p-1, q):
			schedule[i] = 0
			p--
		case reached(p, q-1):
			schedule[i] = 1
			q--
		default:
			panic("sched: broken predecessor chain in worst-case reconstruction")
		}
	}
	return schedule, l.res, nil
}

// ScheduleAdversary replays a fixed half-step schedule: schedule[i] is
// the index of the agent advanced at event i. It wakes all agents first
// and rests when the schedule is exhausted.
type ScheduleAdversary struct {
	Schedule []int
	pos      int
}

var _ Adversary = (*ScheduleAdversary)(nil)

// Next implements Adversary.
func (s *ScheduleAdversary) Next(v *View) (Event, bool) {
	for i, n := 0, v.K(); i < n; i++ {
		if v.CanWake(i) {
			return Event{Kind: EventWake, Agent: i}, true
		}
	}
	for s.pos < len(s.Schedule) {
		agent := s.Schedule[s.pos]
		s.pos++
		if v.CanAdvance(agent) {
			return Event{Kind: EventAdvance, Agent: agent}, true
		}
		// The scheduled agent halted (e.g. rendezvous achieved): the
		// remaining schedule is moot.
		return Event{}, false
	}
	return Event{}, false
}
