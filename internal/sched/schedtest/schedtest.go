// Package schedtest runs blocking agent programs on sched.Runner, for
// tests only. The runner drives every agent through Agent.Step; the
// paper-faithful reference programs (the blocking ESST Procedure, the
// blocking SGL program) are instead written as straight-line code that
// moves by calling a function and reads the arrival it returns.
// Blocking turns such a program into a Step function with iter.Pull, so
// the differential tests can run a reference and its state machine
// under the same adversary and compare the executions.
package schedtest

import (
	"iter"
	"testing"

	"meetpoly/internal/sched"
)

// Program is a blocking agent program. start is the observation at the
// agent's starting node; move traverses the edge leaving the current
// node through port and returns the arrival observation. Returning
// halts the agent.
type Program func(p *sched.Proc, start sched.Observation, move func(port int) sched.Observation)

// stopped unwinds a program whose run ended while it was mid-walk.
type stopped struct{}

// Blocking returns a Step function that runs prog as a resumable state
// machine: each Step resumes the program with the arrival observation
// and suspends it at its next move. A program cut off mid-walk (a
// canceled or budget-truncated run) is unwound when tb's test ends.
func Blocking(tb testing.TB, prog Program) func(p *sched.Proc, o sched.Observation) sched.Action {
	var (
		next func() (int, bool)
		proc *sched.Proc
		cur  sched.Observation
	)
	seq := func(yield func(int) bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(stopped); !ok {
					panic(r)
				}
			}
		}()
		prog(proc, cur, func(port int) sched.Observation {
			if !yield(port) {
				panic(stopped{})
			}
			return cur
		})
	}
	return func(p *sched.Proc, o sched.Observation) sched.Action {
		if next == nil {
			var stop func()
			next, stop = iter.Pull(seq)
			proc = p
			tb.Cleanup(stop)
		}
		cur = o
		port, ok := next()
		if !ok {
			return sched.Action{Halt: true}
		}
		return sched.Action{Port: port}
	}
}
