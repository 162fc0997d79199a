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

// TestRunnerCancelNoLeak cancels the context mid-run and asserts that
// the goroutine count returns to its starting value after Close: the
// runner drives every agent inline and must leave nothing running.
func TestRunnerCancelNoLeak(t *testing.T) {
	for _, name := range []string{"stepper-core"} {
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			r, err := NewRunner(Config{
				Graph:          graph.Ring(6),
				Starts:         []int{0, 3},
				Agents:         []Agent{&Walker{Stepper: endless{}}, &Walker{Stepper: endless{}}},
				InitiallyAwake: []int{0, 1},
				MaxSteps:       1 << 30,
				Context:        ctx,
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

// TestRunnerCancellationLatency: under the avoider and late-wake
// adversaries a mid-run cancellation must land within ctxPollStride
// events, because steps advances on every applied event — there is no
// event mix that defers the stride poll.
func TestRunnerCancellationLatency(t *testing.T) {
	for advName, adv := range map[string]Adversary{
		"avoider":   &Avoider{},
		"late-wake": &LateWake{Primary: 0, Hold: 200},
	} {
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
			}, &cancelAfter{inner: adv, n: cancelAt, cancel: cancel})
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

// cancelAtEvent is an observer that cancels the run's context once the
// adversary event with index at has been applied.
type cancelAtEvent struct {
	FuncObserver
	at     int
	cancel context.CancelFunc
}

func (c *cancelAtEvent) OnEvent(step int, _ Event) {
	if step == c.at {
		c.cancel()
	}
}

// TestStretchCancellationLatency is TestRunnerCancellationLatency on the
// contact-free stretch path: two co-rotating walkers replaying routes
// from a route book, under round-robin and under the avoider, so every
// event runs inside Runner.lockstep. The observer cancels mid-stride,
// and the run must still stop within ctxPollStride events, because a
// stretch ends at the next context poll.
func TestStretchCancellationLatency(t *testing.T) {
	g := graph.Ring(8)
	book := trajectory.NewRouteBook(g)
	gen := func() trajectory.Stepper { return endless{} }
	for advName, adv := range map[string]Adversary{
		"round-robin": &RoundRobin{},
		"avoider":     &Avoider{},
	} {
		t.Run(advName, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			const cancelAt = 1_000
			r, err := NewRunner(Config{
				Graph:  g,
				Starts: []int{0, 4},
				Agents: []Agent{
					&Walker{Stepper: book.Stepper(trajectory.RouteKey{Start: 0}, gen)},
					&Walker{Stepper: book.Stepper(trajectory.RouteKey{Start: 4}, gen)},
				},
				InitiallyAwake: []int{0, 1},
				MaxSteps:       1 << 30,
				Context:        ctx,
				Observer:       &cancelAtEvent{at: cancelAt, cancel: cancel},
			}, adv)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if r.rot == nil {
				t.Fatal("the route-replay pair did not qualify for stretches")
			}
			sum := r.Run()
			if !sum.Canceled {
				t.Fatalf("run not canceled: %+v", sum)
			}
			if sum.Steps <= cancelAt || sum.Steps > cancelAt+ctxPollStride {
				t.Errorf("run took %d steps, want (%d, %d] after cancellation at event %d",
					sum.Steps, cancelAt, cancelAt+ctxPollStride, cancelAt)
			}
		})
	}
}
