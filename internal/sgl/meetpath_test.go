package sgl

import (
	"fmt"
	"reflect"
	"testing"

	"meetpoly/internal/graph"
	"meetpoly/internal/labels"
	"meetpoly/internal/sched"
)

// This file keeps the former meeting data path of Algorithm SGL as a
// reference: a map bag copied into a by-value payload at every contact,
// a fresh peers slice per contact, and a minBag that scans the bag. The
// agent's sorted, immutable bag snapshots (sgl.go) are the same data
// path without the copies; TestMeetingPathMatchesCopying pins the two
// against each other.

// copyPayload is the copying path's by-value payload.
type copyPayload struct {
	Label labels.Label
	State State
	Bag   map[labels.Label]string
	// Final marks the bag as the complete set of all labels.
	Final     bool
	HasOutput bool
}

// copyEncounter is the copying path's queued meeting snapshot.
type copyEncounter struct {
	peers  []copyPayload
	inEdge bool
}

// copyingAgent is an agent on the copying data path. Its bag and
// pending fields shadow the agent's, so the methods below are the
// former ones as they were; only the payload and encounter types are
// renamed, and OnMeet ends by caching the scanned minimum for Step.
type copyingAgent struct {
	*agent
	bag     map[labels.Label]string
	pending []copyEncounter
}

func newCopyingAgent(a *agent) sched.Agent {
	return &copyingAgent{agent: a, bag: map[labels.Label]string{a.label: a.value}}
}

// Step runs the agent's Step on the copying path's data.
//   - The agent's Step drains its own queue, which stays empty here, in
//     ssTravDecide. It enters that state only from ssInit and ssTravArr,
//     neither of which touches the traveller rules' inputs, so the
//     former drain runs here first.
//   - Step reads minLabel, which OnMeet sets from the scanning minBag.
//   - Step calls the agent's setOutput only right before it halts, so
//     the copying setOutput redoes it from the map bag afterwards.
func (a *copyingAgent) Step(p *sched.Proc, o sched.Observation) sched.Action {
	if a.ss == ssInit || a.ss == ssTravArr {
		for len(a.pending) > 0 {
			enc := a.pending[0]
			a.pending = a.pending[1:]
			if a.decideTraveller(enc) {
				a.pending = nil
				break
			}
		}
	}
	hadOutput := a.hasOutput
	act := a.agent.Step(p, o)
	if a.hasOutput && !hadOutput {
		a.setOutput()
	}
	return act
}

// Publish implements sched.Agent.
func (a *copyingAgent) Publish() any {
	bag := make(map[labels.Label]string, len(a.bag))
	for l, v := range a.bag {
		bag[l] = v
	}
	return copyPayload{
		Label:     a.label,
		State:     a.state,
		Bag:       bag,
		Final:     a.final,
		HasOutput: a.hasOutput,
	}
}

// OnMeet implements sched.Agent. It runs between two Step calls: bags
// union immediately; travellers additionally queue the snapshot for
// their transition rules.
func (a *copyingAgent) OnMeet(e sched.Encounter) {
	peers := make([]copyPayload, 0, len(e.Peers))
	for _, p := range e.Peers {
		pl, ok := p.Payload.(copyPayload)
		if !ok {
			continue
		}
		peers = append(peers, pl)
		if a.tokenAssigned && pl.Label == a.tokenLabel {
			a.tokenSighted = true
			if !e.InEdge {
				a.withToken = true
			}
			if pl.HasOutput {
				a.tokenHasOutput = true
			}
		}
		if pl.Final {
			a.final = true
		}
	}
	for _, pl := range peers {
		for l, v := range pl.Bag {
			if _, ok := a.bag[l]; !ok {
				a.bag[l] = v
			}
		}
	}
	if a.state == StateTraveller {
		a.pending = append(a.pending, copyEncounter{peers: peers, inEdge: e.InEdge})
	}
	// A parked ghost outputs the moment it learns its bag is complete.
	if a.state == StateGhost && a.final && !a.hasOutput {
		a.setOutput()
	}
	a.minLabel = a.minBag()
}

func (a *copyingAgent) setOutput() {
	a.markOutput()
	a.final = true
	a.output = make(map[labels.Label]string, len(a.bag))
	for l, v := range a.bag {
		a.output[l] = v
	}
}

func (a *copyingAgent) minBag() labels.Label {
	min := a.label
	for l := range a.bag {
		if l < min {
			min = l
		}
	}
	return min
}

// decideTraveller applies the traveller transition rules of Algorithm
// SGL to one meeting snapshot; true when the agent changed state.
func (a *copyingAgent) decideTraveller(enc copyEncounter) bool {
	// Rule 1: someone has heard of a smaller label -> ghost.
	for _, pl := range enc.peers {
		for l := range pl.Bag {
			if l < a.label {
				a.state = StateGhost
				return true
			}
		}
	}
	// Rule 2: a non-explorer present -> become explorer; the smallest
	// non-explorer becomes this explorer's token.
	var tok *copyPayload
	for idx := range enc.peers {
		pl := &enc.peers[idx]
		if pl.State != StateExplorer {
			if tok == nil || pl.Label < tok.Label {
				tok = pl
			}
		}
	}
	if tok != nil {
		a.state = StateExplorer
		a.tokenAssigned = true
		a.tokenLabel = tok.Label
		a.tokenHasOutput = tok.HasOutput
		a.withToken = !enc.inEdge
		a.tokenSighted = true
		return true
	}
	// Rule 3: explorers only, no smaller labels: stay traveller.
	return false
}

// TestMeetingPathMatchesCopying is the differential proof that the
// snapshot meeting path and the copying reference above are the same
// data path. TestStepMatchesRun cannot see a change to Publish, OnMeet
// or the traveller rules, since both of its programs run the same ones;
// this test runs the same Step with either data path. Over
// TestStepMatchesRun's instances, adversaries and budgets, both must
// produce identical agent reports, scheduler summaries and meeting
// streams. Some payload changes are rare in whole runs (hasOutput
// changes on its own only when an explorer that already holds the final
// bag outputs), so the test first steps both paths through each kind
// of change by hand and compares what they publish.
func TestMeetingPathMatchesCopying(t *testing.T) {
	env := testEnv(t)
	t.Run("publish", func(t *testing.T) {
		pair := func(l labels.Label) (*agent, *copyingAgent) {
			v := fmt.Sprintf("value-of-%d", l)
			ref := newCopyingAgent(newAgent(l, v, env, PracticalBudget(3))).(*copyingAgent)
			return newAgent(l, v, env, PracticalBudget(3)), ref
		}
		asCopy := func(p *Payload) copyPayload {
			bag := make(map[labels.Label]string, len(p.Bag))
			for _, e := range p.Bag {
				bag[e.Label] = e.Value
			}
			return copyPayload{Label: p.Label, State: p.State, Bag: bag, Final: p.Final, HasOutput: p.HasOutput}
		}
		snap, ref := pair(3)
		peerSnap, peerRef := pair(5)
		type published struct {
			p    *Payload
			want copyPayload
		}
		var history []published
		check := func(change string) {
			t.Helper()
			got := snap.Publish().(*Payload)
			want := ref.Publish().(copyPayload)
			if !reflect.DeepEqual(asCopy(got), want) {
				t.Fatalf("after %s: snapshot publishes %+v, copying path %+v", change, *got, want)
			}
			history = append(history, published{got, want})
		}
		meetPeer := func() {
			snap.OnMeet(sched.Encounter{Peers: []sched.Peer{{ID: 1, Payload: peerSnap.Publish()}}})
			ref.OnMeet(sched.Encounter{Peers: []sched.Peer{{ID: 1, Payload: peerRef.Publish()}}})
		}
		check("start")
		meetPeer()
		check("the bag grew")
		meetPeer()
		check("a meeting that taught nothing")
		snap.state, ref.state = StateExplorer, StateExplorer
		check("a state change")
		peerSnap.final, peerRef.final = true, true
		meetPeer()
		check("final alone")
		snap.setOutput()
		ref.setOutput()
		check("hasOutput alone")
		for i, h := range history {
			if !reflect.DeepEqual(asCopy(h.p), h.want) {
				t.Fatalf("snapshot %d changed after it was published: %+v, was %+v", i, asCopy(h.p), h.want)
			}
		}
	})
	advs := map[string]func() sched.Adversary{
		"round-robin": func() sched.Adversary { return &sched.RoundRobin{} },
		"avoider":     func() sched.Adversary { return &sched.Avoider{} },
		"random":      func() sched.Adversary { return sched.NewRandom(5) },
	}
	for _, tc := range stepMatrix() {
		for name, mk := range advs {
			for _, budget := range []int{200_000, 3_000} {
				id := fmt.Sprintf("%s/starts%v/%s/budget%d", tc.g, tc.starts, name, budget)
				run := func(program func(*agent) sched.Agent) (*Result, []sched.Meeting) {
					var meetings []sched.Meeting
					res, err := run(Config{
						Graph: tc.g, Starts: tc.starts, Labels: tc.labs, Env: env, MaxSteps: budget,
						Adversary: mk(),
						Observer:  &sched.FuncObserver{Meeting: func(m sched.Meeting) { meetings = append(meetings, m) }},
					}, program)
					if err != nil {
						t.Fatalf("%s: %v", id, err)
					}
					return res, meetings
				}
				snap, snapMeetings := run(nil)
				ref, refMeetings := run(newCopyingAgent)
				if !reflect.DeepEqual(snap.Agents, ref.Agents) {
					t.Fatalf("%s: agent reports diverge:\nsnapshot %+v\ncopying  %+v", id, snap.Agents, ref.Agents)
				}
				if !reflect.DeepEqual(snap.Summary, ref.Summary) {
					t.Fatalf("%s: summaries diverge:\nsnapshot %+v\ncopying  %+v", id, snap.Summary, ref.Summary)
				}
				if !reflect.DeepEqual(snapMeetings, refMeetings) {
					t.Fatalf("%s: meeting streams diverge: %d vs %d meetings", id, len(snapMeetings), len(refMeetings))
				}
			}
		}
	}
}

// TestOutputCountedOnce: run stops once its count of agents with
// output reaches the team size, so an agent counts once however often
// a program sets its output. The copying reference's Step sets it again
// right after the agent's own Step did.
func TestOutputCountedOnce(t *testing.T) {
	outputs := 0
	a := newAgent(3, "value-of-3", testEnv(t), PracticalBudget(3))
	a.outputs = &outputs
	ref := newCopyingAgent(a).(*copyingAgent)
	a.setOutput()
	ref.setOutput()
	a.setOutput()
	if outputs != 1 {
		t.Fatalf("one agent with output counted %d times", outputs)
	}
}

// TestRunAllocations pins the allocation-free meeting path end to end:
// a warmed star5/k3 run, BenchmarkE8SGL's instance, allocates at most
// 2,500 times. That leaves room for the travellers' trajectory trees
// and the few snapshots of a bag or state that changed, and none for an
// allocation per meeting: the run has thousands of meetings.
func TestRunAllocations(t *testing.T) {
	cfg := Config{
		Graph: graph.Star(5), Starts: []int{1, 2, 3}, Labels: []labels.Label{4, 2, 7},
		Env: testEnv(t), MaxSteps: 40_000_000,
	}
	allocs := testing.AllocsPerRun(5, func() {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllOutput {
			t.Fatal("SGL incomplete")
		}
	})
	if allocs > 2_500 {
		t.Errorf("a star5/k3 run allocates %v times, want at most 2,500", allocs)
	}
}
