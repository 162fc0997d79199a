package sched

import (
	"context"
	"runtime"
	"testing"
	"time"

	"meetpoly/internal/graph"
	"meetpoly/internal/trajectory"
)

// endless is an infinite port-0 stepper: co-rotation fuel for leak and
// benchmark runs.
type endless struct{}

func (endless) Next(deg, entry int) (int, bool) { return 0, true }

// blockingOnly hides the Stepper interface of a Walker, forcing the
// goroutine core for this one agent even in a mixed team.
type blockingOnly struct{ w *Walker }

func (b *blockingOnly) Run(p *Proc)        { b.w.Run(p) }
func (b *blockingOnly) Publish() any       { return b.w.Publish() }
func (b *blockingOnly) OnMeet(e Encounter) { b.w.OnMeet(e) }

// cancelAfter wraps an adversary and cancels the run's context after n
// events, leaving agents mid-flight.
type cancelAfter struct {
	inner  Adversary
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfter) Next(v *View) (Event, bool) {
	if c.n--; c.n == 0 {
		c.cancel()
	}
	return c.inner.Next(v)
}

// TestRunnerCancelNoLeak cancels the context mid-run on every execution
// core combination and asserts that Runner.Close releases every agent
// goroutine: the scheduler must not leak even when blocking agents are
// parked inside Proc.Move at cancellation.
func TestRunnerCancelNoLeak(t *testing.T) {
	cases := []struct {
		name  string
		force bool
		mixed bool
	}{
		{"stepper-core", false, false},
		{"goroutine-core", true, false},
		{"mixed-team", false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var agents []Agent
			agents = append(agents, &Walker{Stepper: endless{}})
			if tc.mixed {
				agents = append(agents, &blockingOnly{w: &Walker{Stepper: endless{}}})
			} else {
				agents = append(agents, &Walker{Stepper: endless{}})
			}
			r, err := NewRunner(Config{
				Graph:          graph.Ring(6),
				Starts:         []int{0, 3},
				Agents:         agents,
				InitiallyAwake: []int{0, 1},
				MaxSteps:       1 << 30,
				Context:        ctx,
				ForceBlocking:  tc.force,
			}, &cancelAfter{inner: &RoundRobin{}, n: 100, cancel: cancel})
			if err != nil {
				t.Fatal(err)
			}
			sum := r.Run()
			if !sum.Canceled {
				t.Fatalf("run was not canceled: %+v", sum)
			}
			r.Close()
			r.Close() // idempotent
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines leaked after Close: %d before, %d after",
						before, runtime.NumGoroutine())
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestMixedTeamCoresAgree runs the same instance with every dispatch
// combination — all steppers, all goroutines, and a mixed team — and
// asserts identical summaries: per-agent core selection must not change
// the execution.
func TestMixedTeamCoresAgree(t *testing.T) {
	run := func(force, mixed bool) Summary {
		g := graph.Ring(5)
		mkStepper := func() trajectory.Stepper { return script(0, 1, 0, 1, 0, 0, 1, 0) }
		var agents []Agent
		agents = append(agents, &Walker{Stepper: mkStepper()})
		if mixed {
			agents = append(agents, &blockingOnly{w: &Walker{Stepper: mkStepper()}})
		} else {
			agents = append(agents, &Walker{Stepper: mkStepper()})
		}
		r, err := NewRunner(Config{
			Graph: g, Starts: []int{0, 2}, Agents: agents,
			InitiallyAwake: []int{0, 1}, MaxSteps: 10_000,
			ForceBlocking: force,
		}, NewRandom(3))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		return r.Run()
	}
	ref := run(false, false)
	for name, sum := range map[string]Summary{
		"goroutine": run(true, false),
		"mixed":     run(false, true),
	} {
		if sum.Steps != ref.Steps || sum.TotalCost != ref.TotalCost ||
			len(sum.Meetings) != len(ref.Meetings) {
			t.Errorf("%s core diverges from stepper core: %+v vs %+v", name, sum, ref)
		}
	}
}

// TestRunnerCancellationLatency: under the avoider and late-wake
// adversaries a mid-run cancellation must land within ctxPollStride
// events, because steps advances on every applied event — there is no
// event mix that defers the stride poll.
func TestRunnerCancellationLatency(t *testing.T) {
	for _, advName := range []string{"avoider", "late-wake"} {
		t.Run(advName, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			const cancelAt = 100
			r, err := NewRunner(Config{
				Graph:          graph.Ring(8),
				Starts:         []int{0, 4},
				Agents:         []Agent{&Walker{Stepper: endless{}}, &Walker{Stepper: endless{}}},
				InitiallyAwake: []int{0, 1},
				MaxSteps:       1 << 30,
				Context:        ctx,
			}, &cancelAfter{inner: Strategies(2)[advName](), n: cancelAt, cancel: cancel})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			sum := r.Run()
			if !sum.Canceled {
				t.Fatalf("run not canceled: %+v", sum)
			}
			if sum.Steps > cancelAt+ctxPollStride {
				t.Errorf("run took %d steps, want <= %d after cancellation at %d",
					sum.Steps, cancelAt+ctxPollStride, cancelAt)
			}
		})
	}
}
