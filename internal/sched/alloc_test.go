package sched

import (
	"testing"

	"meetpoly/internal/graph"
	"meetpoly/internal/trajectory"
)

// cycleWalk repeats its ports forever, without allocating.
type cycleWalk struct {
	ports []int
	i     int
}

func (c *cycleWalk) Next(deg, _ int) (int, bool) {
	p := c.ports[c.i%len(c.ports)] % deg
	c.i++
	return p, true
}

// TestMeetingsDoNotAllocate pins the allocation-free meeting path: a
// run's allocations are its fixed set-up, however many meetings it
// delivers. Three walkers circle a ring, one against the other two, so
// they meet every few events; a ten times larger budget brings about
// ten times the meetings and must not bring more allocations.
func TestMeetingsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops the run scratch at random under -race")
	}
	g := graph.Ring(6)
	measure := func(budget int) (allocs float64, meetings int) {
		allocs = testing.AllocsPerRun(5, func() {
			ws := []*Walker{
				{Stepper: &cycleWalk{ports: []int{0}}, Payload: new(int)},
				{Stepper: &cycleWalk{ports: []int{1}}, Payload: new(int)},
				{Stepper: &cycleWalk{ports: []int{0, 0, 1}}, Payload: new(int)},
			}
			r, err := NewRunner(Config{
				Graph: g, Starts: []int{0, 2, 4}, Agents: []Agent{ws[0], ws[1], ws[2]},
				InitiallyAwake: []int{0, 1, 2}, MaxSteps: budget,
			}, &RoundRobin{})
			if err != nil {
				t.Fatal(err)
			}
			r.Run()
			r.Close()
			meetings = 0
			for _, w := range ws {
				meetings += w.MeetCount()
			}
		})
		return allocs, meetings
	}
	small, few := measure(2_000)
	large, many := measure(20_000)
	if few == 0 || many < 5*few {
		t.Fatalf("walkers met %d times in 2,000 events and %d in 20,000: the workload does not scale", few, many)
	}
	if large > small {
		t.Errorf("allocations grow with meetings: %v per run with %d meetings delivered, %v with %d",
			small, few, large, many)
	}
}

// TestStretchAllocatesNoMoreThanPerEvent pins the stretch path's
// allocations: a warm route-replay pair under round-robin, whose runs
// spend nearly every event in Runner.lockstep, allocates no more per
// run than the same run through the perEvent wrapper.
func TestStretchAllocatesNoMoreThanPerEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops the run scratch at random under -race")
	}
	g := graph.Ring(6)
	book := trajectory.NewRouteBook(g)
	gen := func() trajectory.Stepper { return &cycleWalk{ports: []int{0}} }
	measure := func(wrap bool) float64 {
		return testing.AllocsPerRun(5, func() {
			var adv Adversary = &RoundRobin{}
			if wrap {
				adv = perEvent{adv}
			}
			r, err := NewRunner(Config{
				Graph:  g,
				Starts: []int{0, 3},
				Agents: []Agent{
					&Walker{Stepper: book.Stepper(trajectory.RouteKey{Start: 0}, gen)},
					&Walker{Stepper: book.Stepper(trajectory.RouteKey{Start: 3}, gen)},
				},
				InitiallyAwake: []int{0, 1},
				MaxSteps:       20_000,
			}, adv)
			if err != nil {
				t.Fatal(err)
			}
			r.Run()
			r.Close()
		})
	}
	measure(true) // materialize both routes
	if stretch, perEvt := measure(false), measure(true); stretch > perEvt {
		t.Errorf("a stretch run allocates %v times, the per-event run %v", stretch, perEvt)
	}
}
