package schedtest

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"meetpoly/internal/graph"
	"meetpoly/internal/sched"
	"meetpoly/internal/trajectory"
)

// script is a finite route: its ports, reduced modulo the local degree.
type script struct {
	ports []int
	i     int
}

func (s *script) Next(deg, _ int) (int, bool) {
	if s.i == len(s.ports) {
		return 0, false
	}
	p := s.ports[s.i] % deg
	s.i++
	return p, true
}

// endless is an infinite port-0 route.
type endless struct{}

func (endless) Next(int, int) (int, bool) { return 0, true }

// walk is sched.Walker's program written blocking: follow the route
// until it is exhausted.
func walk(route trajectory.Stepper) Program {
	return func(_ *sched.Proc, o sched.Observation, move func(int) sched.Observation) {
		for {
			entry := o.Entry
			if entry < 0 {
				entry = 0
			}
			port, ok := route.Next(o.Degree, entry)
			if !ok {
				return
			}
			o = move(port)
		}
	}
}

// blockingAgent runs a blocking program through Blocking.
type blockingAgent struct {
	step func(*sched.Proc, sched.Observation) sched.Action
}

func (a *blockingAgent) Step(p *sched.Proc, o sched.Observation) sched.Action { return a.step(p, o) }
func (a *blockingAgent) Publish() any                                         { return nil }
func (a *blockingAgent) OnMeet(sched.Encounter)                               {}

// cancelAfter cancels the run's context after n adversary events,
// leaving the agents mid-walk.
type cancelAfter struct {
	inner  sched.Adversary
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfter) Next(v *sched.View) (sched.Event, bool) {
	if c.n--; c.n == 0 {
		c.cancel()
	}
	return c.inner.Next(v)
}

// TestBlockingNoLeak cuts blocking programs off mid-walk — by a
// canceled context, by an exhausted budget, and in a team mixing a
// native Walker with a blocking program — and asserts that the
// suspended programs hold goroutines while their test runs and that
// the goroutine count returns to its starting value once it ends.
func TestBlockingNoLeak(t *testing.T) {
	cases := []struct {
		name     string
		mixed    bool
		cancelAt int // 0: run until the budget is spent
	}{
		{"canceled", false, 100},
		{"budget-truncated", false, 0},
		{"mixed-team", true, 100},
	}
	for _, tc := range cases {
		before := runtime.NumGoroutine()
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var adv sched.Adversary = &sched.RoundRobin{}
			if tc.cancelAt > 0 {
				adv = &cancelAfter{inner: adv, n: tc.cancelAt, cancel: cancel}
			}
			var first sched.Agent = &blockingAgent{step: Blocking(t, walk(endless{}))}
			if tc.mixed {
				first = &sched.Walker{Stepper: endless{}}
			}
			r, err := sched.NewRunner(sched.Config{
				Graph:          graph.Ring(6),
				Starts:         []int{0, 3},
				Agents:         []sched.Agent{first, &blockingAgent{step: Blocking(t, walk(endless{}))}},
				InitiallyAwake: []int{0, 1},
				MaxSteps:       1000,
				Context:        ctx,
			}, adv)
			if err != nil {
				t.Fatal(err)
			}
			sum := r.Run()
			r.Close()
			if tc.cancelAt > 0 && !sum.Canceled {
				t.Fatalf("run was not canceled: %+v", sum)
			}
			if tc.cancelAt == 0 && !sum.Exhausted {
				t.Fatalf("run did not exhaust its budget: %+v", sum)
			}
			if n := runtime.NumGoroutine(); n <= before {
				t.Fatalf("no suspended program goroutine while the test runs (%d before, %d now)", before, n)
			}
		})
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("%s: goroutines leaked: %d before, %d after", tc.name, before, runtime.NumGoroutine())
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestBlockingMatchesStepper runs one route as a native Walker and as
// the same program written blocking, alone and in a mixed team, under
// a random adversary: the adapter must reproduce the native execution
// exactly, summary for summary and meeting for meeting.
func TestBlockingMatchesStepper(t *testing.T) {
	ports := []int{0, 1, 0, 1, 0, 0, 1, 0}
	type execution struct {
		sum      sched.Summary
		meetings []sched.Meeting
	}
	run := func(blocking ...bool) execution {
		agents := make([]sched.Agent, len(blocking))
		for i, b := range blocking {
			route := &script{ports: ports}
			if b {
				agents[i] = &blockingAgent{step: Blocking(t, walk(route))}
			} else {
				agents[i] = &sched.Walker{Stepper: route}
			}
		}
		var meetings []sched.Meeting
		r, err := sched.NewRunner(sched.Config{
			Graph: graph.Ring(5), Starts: []int{0, 2}, Agents: agents,
			InitiallyAwake: []int{0, 1}, MaxSteps: 10_000,
			Observer: &sched.FuncObserver{Meeting: func(m sched.Meeting) { meetings = append(meetings, m) }},
		}, sched.NewRandom(3))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		return execution{r.Run(), meetings}
	}
	ref := run(false, false)
	if ref.sum.TotalCost == 0 {
		t.Fatalf("reference run moved nobody: %+v", ref.sum)
	}
	for name, ex := range map[string]execution{
		"blocking": run(true, true),
		"mixed":    run(false, true),
	} {
		if !reflect.DeepEqual(ex, ref) {
			t.Errorf("%s team diverges from the native one:\n%+v\nvs\n%+v", name, ex, ref)
		}
	}
}
