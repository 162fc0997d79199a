package sched

import (
	"testing"

	"meetpoly/internal/graph"
	"meetpoly/internal/trajectory"
)

// badPort is a stepper that commits an out-of-range port on its second
// decision: the canonical mid-run panic (commit calls invalidPort).
type badPort struct{ calls int }

func (b *badPort) Next(deg, entry int) (int, bool) {
	b.calls++
	if b.calls > 1 {
		return 99, true
	}
	return 0, true
}

var _ trajectory.Stepper = (*badPort)(nil)

// scrubbedRunScratch asserts the pooled scratch retains no references
// to a previous tenant's agents or payloads over its FULL capacity —
// the live prefix and the capacity tail beyond it alike.
func scrubbedRunScratch(t *testing.T, s *runScratch) {
	t.Helper()
	for i, st := range s.states[:cap(s.states)] {
		if st.agent != nil || st.proc != nil {
			t.Errorf("pooled scratch states[%d] retains agent references: %+v", i, st)
		}
	}
	for i, p := range s.ptrs[:cap(s.ptrs)] {
		if p != nil {
			t.Errorf("pooled scratch ptrs[%d] retains an agent-state pointer", i)
		}
	}
	for i, p := range s.meetBuf[:cap(s.meetBuf)] {
		if p.Payload != nil {
			t.Errorf("pooled scratch meetBuf[%d] retains a payload", i)
		}
	}
}

// TestCloseScrubsScratch runs a three-agent simulation with a meeting
// and checks that Close zeroes every agent and payload reference in
// the pooled scratch — including capacity beyond the next tenant's
// live prefix, where a stale pointer would silently pin agents (and
// everything they reference) in memory.
func TestCloseScrubsScratch(t *testing.T) {
	r, err := NewRunner(Config{
		Graph:  graph.Ring(6),
		Starts: []int{0, 2, 4},
		Agents: []Agent{
			&Walker{Stepper: script(0, 0), Payload: new(int)},
			&Walker{Stepper: script(0, 0), Payload: new(int)},
			&Walker{Stepper: script(1, 1), Payload: new(int)},
		},
		InitiallyAwake: []int{0, 1, 2},
		MaxSteps:       50,
	}, &RoundRobin{})
	if err != nil {
		t.Fatal(err)
	}
	s := r.scratch
	if sum := r.Run(); sum.FirstMeeting == nil {
		t.Fatal("no meeting: the meeting buffer went unused")
	}
	r.Close()
	scrubbedRunScratch(t, s)
}

// TestRunnerPanicPathReturnsScratch is the satellite panic-path test:
// an agent panicking mid-run (invalid port) unwinds through Run, and
// the deferred Close must still return the scratch to the pool —
// scrubbed — so the panic neither leaks the buffers nor poisons the
// next tenant. A follow-up run on the same pool must be unaffected.
func TestRunnerPanicPathReturnsScratch(t *testing.T) {
	var s *runScratch
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected the invalid-port panic")
			}
		}()
		r, err := NewRunner(Config{
			Graph:  graph.Ring(6),
			Starts: []int{0, 3},
			Agents: []Agent{
				&Walker{Stepper: &badPort{}},
				&Walker{Stepper: script(0, 0, 0, 0)},
			},
			InitiallyAwake: []int{0, 1},
			MaxSteps:       100,
		}, &RoundRobin{})
		if err != nil {
			t.Fatal(err)
		}
		s = r.scratch
		defer r.Close()
		r.Run()
	}()
	scrubbedRunScratch(t, s)
	// The pool is usable afterwards: a normal run over recycled scratch
	// behaves exactly as on fresh buffers.
	r, err := NewRunner(Config{
		Graph:  graph.Ring(6),
		Starts: []int{0, 3},
		Agents: []Agent{
			&Walker{Stepper: script(0, 0, 0), StopAtMeeting: true},
			&Walker{Stepper: script(1, 1, 1), StopAtMeeting: true},
		},
		InitiallyAwake:     []int{0, 1},
		StopAtFirstMeeting: true,
		MaxSteps:           100,
	}, &RoundRobin{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if sum := r.Run(); sum.FirstMeeting == nil {
		t.Errorf("post-panic run on recycled scratch found no meeting: %+v", sum)
	}
}

// TestNewRunnerErrorPathsPrecedeScratch pins the NewRunner ordering
// invariant: every validation error (InitiallyAwake out of range
// included — the one that used to fire after the pool Get and leak the
// scratch) returns before any pooled state is acquired.
func TestNewRunnerErrorPathsPrecedeScratch(t *testing.T) {
	base := func() Config {
		return Config{
			Graph:  graph.Ring(5),
			Starts: []int{0, 2},
			Agents: []Agent{
				&Walker{Stepper: script(0)},
				&Walker{Stepper: script(0)},
			},
			MaxSteps: 10,
		}
	}
	cases := map[string]func(*Config){
		"awake out of range": func(c *Config) { c.InitiallyAwake = []int{2} },
		"awake negative":     func(c *Config) { c.InitiallyAwake = []int{-1} },
		"duplicate starts":   func(c *Config) { c.Starts = []int{1, 1} },
		"zero budget":        func(c *Config) { c.MaxSteps = 0 },
	}
	for name, mut := range cases {
		cfg := base()
		mut(&cfg)
		r, err := NewRunner(cfg, &RoundRobin{})
		if err == nil {
			r.Close()
			t.Errorf("%s: NewRunner accepted an invalid config", name)
		}
	}
}
