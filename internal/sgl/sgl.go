// Package sgl implements Algorithm SGL (§4 of the paper): Strong Global
// Learning for a team of k > 1 asynchronous agents in an unknown graph.
// Upon completion every agent outputs the set of labels of all
// participating agents and is aware the set is complete, which
// immediately solves team size, leader election, perfect renaming and
// gossiping at cost polynomial in the graph size and in the smallest
// label length (Theorem 4.1).
//
// Each agent starts as a traveller executing RV-asynch-poly with its own
// label and carries a bag: the set of labels (with attached gossip
// values) it has heard of, exchanged and unioned at every meeting.
//
//   - A traveller that meets someone whose bag holds a label smaller than
//     its own becomes a ghost: it finishes the current edge and parks
//     forever, a meetable information relay.
//   - Otherwise, if it meets a non-explorer, it becomes an explorer and
//     adopts the smallest-labelled non-explorer it met as its token (that
//     agent parks as a ghost). The explorer runs Procedure ESST against
//     its token (Phase 1), learning an upper bound E(n) on the graph
//     size; backtracks and resumes RV-asynch-poly (Phase 2) until it
//     either exhausts its budget or hears a smaller label; then (Phase 3)
//     either seeks its token and parks/adopts its output, or — if its own
//     label is still the smallest it knows — sweeps the graph with
//     R(E(n), s), collecting every parked agent's label, and sweeps again
//     broadcasting the now-complete bag.
//
// Faithfulness note (DESIGN.md §2.3): the paper's Phase 2 runs for
// Π(E(n), |L|) traversals, a bound so large it cannot be walked by any
// machine; Phase2Budget makes the horizon configurable. FaithfulBudget
// is the paper's; PracticalBudget is the simulation-scale default. The
// test suite verifies *outcomes* (exact output sets), so an inadequate
// budget manifests as a caught failure, never as a silently wrong claim.
package sgl

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/big"
	"sort"

	"meetpoly/internal/costmodel"
	"meetpoly/internal/esst"
	"meetpoly/internal/graph"
	"meetpoly/internal/labels"
	"meetpoly/internal/rverr"
	"meetpoly/internal/sched"
	"meetpoly/internal/trajectory"
	"meetpoly/internal/uxs"
)

// State is an SGL agent's role.
type State uint8

// SGL states.
const (
	StateTraveller State = iota + 1
	StateExplorer
	StateGhost
)

func (s State) String() string {
	switch s {
	case StateTraveller:
		return "traveller"
	case StateExplorer:
		return "explorer"
	case StateGhost:
		return "ghost"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Payload is the information an SGL agent shares at a meeting: its
// pre-meeting snapshot, per the model's simultaneous exchange.
type Payload struct {
	Label labels.Label
	State State
	Bag   map[labels.Label]string
	// Final marks the bag as the complete set of all labels.
	Final     bool
	HasOutput bool
}

// Phase2Budget returns the number of RV-asynch-poly edge traversals an
// explorer performs in Phase 2 (counted from the very beginning of its
// execution), given the ESST-derived size bound e.
type Phase2Budget func(e int, l labels.Label) int

// PracticalBudget scales the Phase 2 horizon linearly with E(n):
// factor*(e+1) traversals. This is the simulation-scale substitute for
// the paper's Π bound; see the package comment.
func PracticalBudget(factor int) Phase2Budget {
	if factor < 1 {
		panic("sgl: PracticalBudget needs factor >= 1")
	}
	return func(e int, _ labels.Label) int { return factor * (e + 1) }
}

// FaithfulBudget is the paper's Phase 2 horizon Π(E(n), |L|), clamped to
// the integer range. No simulation completes it; it is provided for
// faithfulness and for cost-model queries.
func FaithfulBudget(cat uxs.Catalog) Phase2Budget {
	model := costmodel.New(func(k int) *big.Int {
		return big.NewInt(int64(cat.P(k)))
	})
	return func(e int, l labels.Label) int {
		pi := model.Pi(e, l.Len())
		if !pi.IsInt64() {
			return math.MaxInt
		}
		v := pi.Int64()
		if v > math.MaxInt32*int64(1)<<16 { // effectively unreachable
			return math.MaxInt
		}
		return int(v)
	}
}

// encounterRec is a queued meeting snapshot awaiting the traveller's
// decision rules.
type encounterRec struct {
	peers  []Payload
	inEdge bool
}

// agent is one SGL participant's program and state.
type agent struct {
	label labels.Label
	value string
	env   *trajectory.Env
	cat   uxs.Catalog

	phase2Budget Phase2Budget

	state     State
	bag       map[labels.Label]string
	final     bool
	hasOutput bool
	output    map[labels.Label]string

	rv      trajectory.Stepper
	rvCount int
	rvEntry int
	curDeg  int

	pending   []encounterRec
	meetEpoch int

	tokenAssigned  bool
	tokenLabel     labels.Label
	tokenSighted   bool // token met during the last move
	withToken      bool // co-located with token right now
	tokenHasOutput bool

	phase1Trace []esst.MoveRec
	failure     string

	finalState State // recorded at halt for reports

	// Direct-dispatch core state (agent.Step in step.go); the blocking
	// program in Run never touches these.
	ss         stepState
	mach       *esst.Machine
	eBound     int // ESST-derived size bound E(n)
	p2budget   int
	btIdx      int // backtrack index (phase-1 trace or sweep record)
	sweepSeq   []int
	sweepIdx   int
	sweepEntry int
	sweepRec   []esst.MoveRec
	lastExit   int
}

var _ sched.Agent = (*agent)(nil)

func newAgent(l labels.Label, value string, env *trajectory.Env, budget Phase2Budget) *agent {
	return &agent{
		label:        l,
		value:        value,
		env:          env,
		cat:          env.Catalog(),
		phase2Budget: budget,
		state:        StateTraveller,
		bag:          map[labels.Label]string{l: value},
		rv:           nil, // created lazily at wake (stepper is stateful)
	}
}

// Publish implements sched.Agent.
func (a *agent) Publish() any {
	bag := make(map[labels.Label]string, len(a.bag))
	for l, v := range a.bag {
		bag[l] = v
	}
	return Payload{
		Label:     a.label,
		State:     a.state,
		Bag:       bag,
		Final:     a.final,
		HasOutput: a.hasOutput,
	}
}

// OnMeet implements sched.Agent. It runs while the agent's goroutine is
// suspended: bags union immediately; travellers additionally queue the
// snapshot for their transition rules.
func (a *agent) OnMeet(e sched.Encounter) {
	a.meetEpoch++
	peers := make([]Payload, 0, len(e.Peers))
	for _, p := range e.Peers {
		pl, ok := p.Payload.(Payload)
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
		a.pending = append(a.pending, encounterRec{peers: peers, inEdge: e.InEdge})
	}
	// A parked ghost outputs the moment it learns its bag is complete.
	if a.state == StateGhost && a.final && !a.hasOutput {
		a.setOutput()
	}
}

func (a *agent) setOutput() {
	a.hasOutput = true
	a.final = true
	a.output = make(map[labels.Label]string, len(a.bag))
	for l, v := range a.bag {
		a.output[l] = v
	}
}

func (a *agent) minBag() labels.Label {
	min := a.label
	for l := range a.bag {
		if l < min {
			min = l
		}
	}
	return min
}

// move performs one traversal, refreshing token flags.
func (a *agent) move(p *sched.Proc, port int) sched.Observation {
	a.tokenSighted = false
	a.withToken = false
	obs := p.Move(port)
	a.curDeg = obs.Degree
	return obs
}

// Run implements sched.Agent: the SGL state machine.
func (a *agent) Run(p *sched.Proc) {
	defer func() { a.finalState = a.state }()
	a.curDeg = p.Obs().Degree
	a.rv = a.newRV()
	p.Phase("sgl: traveller")
	a.runTraveller(p)
	if a.state == StateGhost {
		p.Phase("sgl: ghost")
		if a.final && !a.hasOutput {
			a.setOutput()
		}
		return // park forever; OnMeet keeps serving
	}
	// Explorer.
	p.Phase("sgl: explorer phase 1 (ESST)")
	e := a.phase1(p)
	p.Phase("sgl: explorer phase 2 (resume RV)")
	a.phase2(p, e)
	p.Phase("sgl: explorer phase 3 (seek/sweep)")
	a.phase3(p, e)
}

func (a *agent) newRV() trajectory.Stepper {
	// Import cycle note: the master RV schedule lives in package core;
	// sgl reimplements the same flattened loop to avoid core->sgl->core
	// cycles. The structure is pinned against core.Schedule by tests.
	bits := a.label.Modified()
	s := len(bits)
	k, i, phase := 1, 1, 0
	return trajectory.Chain(func(int) trajectory.Stepper {
		m := k
		if s < m {
			m = s
		}
		switch phase {
		case 0, 1:
			phase++
			if bits[i-1] == 1 {
				return a.env.B(2 * k)
			}
			return a.env.A(4 * k)
		default:
			phase = 0
			defer func() {
				i++
				if i > m {
					i = 1
					k++
				}
			}()
			if i < m {
				return a.env.K(k)
			}
			return a.env.Omega(k)
		}
	})
}

// runTraveller executes RV-asynch-poly until a transition fires.
func (a *agent) runTraveller(p *sched.Proc) {
	for {
		for len(a.pending) > 0 {
			enc := a.pending[0]
			a.pending = a.pending[1:]
			if a.decideTraveller(enc) {
				a.pending = nil
				return
			}
		}
		port, ok := a.rv.Next(a.curDeg, a.rvEntry)
		if !ok {
			a.failure = "traveller: RV schedule exhausted (impossible)"
			return
		}
		obs := a.move(p, port)
		a.rvCount++
		a.rvEntry = obs.Entry
	}
}

// decideTraveller applies the traveller transition rules of Algorithm
// SGL to one meeting snapshot; true when the agent changed state.
func (a *agent) decideTraveller(enc encounterRec) bool {
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
	var tok *Payload
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

// phase1 runs Procedure ESST against the agent's token and returns the
// size bound E(n) = cost + 1.
func (a *agent) phase1(p *sched.Proc) int {
	pr := &esst.Procedure{
		Cat: a.cat,
		Hooks: esst.Hooks{
			Move: func(port int) (sched.Observation, bool) {
				obs := a.move(p, port)
				return obs, a.tokenSighted
			},
			Degree:    func() int { return a.curDeg },
			WithToken: func() bool { return a.withToken },
		},
	}
	pr.Run()
	a.phase1Trace = pr.Trace
	return pr.Cost + 1
}

// phase2 backtracks the Phase 1 walk and resumes RV-asynch-poly until
// the budget is exhausted or a smaller label is heard.
func (a *agent) phase2(p *sched.Proc, e int) {
	if a.minBag() < a.label {
		return // abort immediately; Phase 3 starts here
	}
	for t := len(a.phase1Trace) - 1; t >= 0; t-- {
		a.move(p, a.phase1Trace[t].Entry)
		if a.minBag() < a.label {
			return // abort as soon as at a node
		}
	}
	budget := a.phase2Budget(e, a.label)
	for a.rvCount < budget {
		port, ok := a.rv.Next(a.curDeg, a.rvEntry)
		if !ok {
			a.failure = "phase2: RV schedule exhausted (impossible)"
			return
		}
		obs := a.move(p, port)
		a.rvCount++
		a.rvEntry = obs.Entry
		if a.minBag() < a.label {
			return
		}
	}
}

// phase3 finishes the algorithm: seekers find their token and park or
// adopt its output; the minimum-label agent sweeps, completes its bag,
// and broadcasts it.
func (a *agent) phase3(p *sched.Proc, e int) {
	if a.minBag() < a.label {
		a.seekToken(p, e)
		return
	}
	// This agent believes it is m: sweep R(E(n), s) collecting every
	// parked agent, declare the bag complete, and sweep back
	// broadcasting. The extra bounce before backtracking re-triggers the
	// meeting with any ghost co-located at the sweep's far end: the
	// discrete contact-episode model only exchanges payloads when a
	// contact STARTS, whereas the paper's continuous agents can transmit
	// during an ongoing co-location.
	seq := a.cat.Seq(e)
	rec := make([]esst.MoveRec, 0, len(seq))
	entry := 0
	for _, x := range seq {
		port := (entry + x) % a.curDeg
		obs := a.move(p, port)
		rec = append(rec, esst.MoveRec{Exit: port, Entry: obs.Entry})
		entry = obs.Entry
	}
	a.final = true
	if len(rec) > 0 {
		last := rec[len(rec)-1]
		obs := a.move(p, last.Entry) // bounce out
		a.move(p, obs.Entry)         // and back, refreshing the contact
	}
	for t := len(rec) - 1; t >= 0; t-- {
		a.move(p, rec[t].Entry)
	}
	a.setOutput()
}

// seekToken walks R(E(n), s) until it meets its token, then parks (or
// adopts the token's output if the token has already finished).
func (a *agent) seekToken(p *sched.Proc, e int) {
	if !a.withToken {
		seq := a.cat.Seq(e)
		entry := 0
		found := false
		for _, x := range seq {
			port := (entry + x) % a.curDeg
			obs := a.move(p, port)
			entry = obs.Entry
			if a.tokenSighted {
				found = true
				break
			}
		}
		if !found {
			a.failure = "phase3: token not found during R(E(n)) sweep"
			return
		}
	}
	if a.tokenHasOutput {
		a.setOutput()
		return
	}
	a.state = StateGhost
	if a.final && !a.hasOutput {
		a.setOutput()
	}
}

// AgentReport is one agent's outcome.
type AgentReport struct {
	Label      labels.Label
	State      State
	HasOutput  bool
	Output     []labels.Label          // sorted label set, nil if no output
	Values     map[labels.Label]string // gossip values attached to Output
	TeamSize   int
	Leader     labels.Label
	NewName    int // 1-based rank of Label within Output (perfect renaming)
	Traversals int
	Failure    string
}

// Result is the outcome of an SGL run.
type Result struct {
	Agents    []AgentReport
	AllOutput bool
	TotalCost int
	Summary   sched.Summary
}

// Config describes an SGL instance.
type Config struct {
	Graph  *graph.Graph
	Starts []int
	Labels []labels.Label
	// Values are the gossip inputs; defaults to "value-of-<label>".
	Values []string
	Env    *trajectory.Env
	// Adversary defaults to round-robin.
	Adversary sched.Adversary
	// InitiallyAwake defaults to all agents (the adversary still orders
	// every half-step). Dormant agents wake when visited.
	InitiallyAwake []int
	MaxSteps       int
	// Phase2Budget defaults to PracticalBudget(3).
	Phase2Budget Phase2Budget
	// Context, if non-nil, aborts the run between scheduler events when
	// canceled (reported in Result.Summary.Canceled).
	Context context.Context
	// Observer, if non-nil, receives execution events, including each
	// agent's state and phase transitions.
	Observer sched.Observer
	// ForceBlocking runs the agents on the scheduler's goroutine core
	// instead of the direct-dispatch fast path (sched.Config).
	ForceBlocking bool
}

// Run executes Algorithm SGL and reports every agent's outcome.
func Run(cfg Config) (*Result, error) {
	k := len(cfg.Labels)
	if k < 2 {
		return nil, fmt.Errorf("sgl: SGL requires at least 2 agents (k > 1): %w", rverr.ErrInvalidScenario)
	}
	if len(cfg.Starts) != k {
		return nil, fmt.Errorf("sgl: %d starts for %d labels: %w", len(cfg.Starts), k, rverr.ErrInvalidScenario)
	}
	seen := make(map[labels.Label]bool, k)
	for _, l := range cfg.Labels {
		if l == 0 {
			return nil, fmt.Errorf("sgl: labels must be positive: %w", rverr.ErrInvalidScenario)
		}
		if seen[l] {
			return nil, fmt.Errorf("sgl: duplicate label %d: %w", l, rverr.ErrInvalidScenario)
		}
		seen[l] = true
	}
	if cfg.Env == nil {
		return nil, fmt.Errorf("sgl: nil Env: %w", rverr.ErrInvalidScenario)
	}
	budget := cfg.Phase2Budget
	if budget == nil {
		budget = PracticalBudget(3)
	}
	adv := cfg.Adversary
	if adv == nil {
		adv = &sched.RoundRobin{}
	}
	values := cfg.Values
	if values == nil {
		values = make([]string, k)
		for i, l := range cfg.Labels {
			values[i] = fmt.Sprintf("value-of-%d", l)
		}
	}
	if len(values) != k {
		return nil, fmt.Errorf("sgl: %d values for %d labels: %w", len(values), k, rverr.ErrInvalidScenario)
	}

	agents := make([]*agent, k)
	schedAgents := make([]sched.Agent, k)
	for i := range agents {
		agents[i] = newAgent(cfg.Labels[i], values[i], cfg.Env, budget)
		schedAgents[i] = agents[i]
	}
	awake := cfg.InitiallyAwake
	if awake == nil {
		awake = make([]int, k)
		for i := range awake {
			awake[i] = i
		}
	}
	r, err := sched.NewRunner(sched.Config{
		Graph:          cfg.Graph,
		Starts:         cfg.Starts,
		Agents:         schedAgents,
		InitiallyAwake: awake,
		MaxSteps:       cfg.MaxSteps,
		StopWhen: func(*sched.Runner) bool {
			for _, a := range agents {
				if !a.hasOutput {
					return false
				}
			}
			return true
		},
		Context:       cfg.Context,
		Observer:      cfg.Observer,
		ForceBlocking: cfg.ForceBlocking,
	}, adv)
	if err != nil {
		return nil, fmt.Errorf("sgl: %w", err)
	}
	defer r.Close()
	sum := r.Run()

	res := &Result{Summary: sum, TotalCost: sum.TotalCost, AllOutput: true}
	for i, a := range agents {
		rep := AgentReport{
			Label:      a.label,
			State:      a.state,
			HasOutput:  a.hasOutput,
			Traversals: sum.Traversals[i],
			Failure:    a.failure,
		}
		if a.hasOutput {
			rep.Values = a.output
			for l := range a.output {
				rep.Output = append(rep.Output, l)
			}
			sort.Slice(rep.Output, func(x, y int) bool { return rep.Output[x] < rep.Output[y] })
			rep.TeamSize = len(rep.Output)
			rep.Leader = rep.Output[0]
			for rank, l := range rep.Output {
				if l == a.label {
					rep.NewName = rank + 1
				}
			}
		} else {
			res.AllOutput = false
		}
		res.Agents = append(res.Agents, rep)
	}
	return res, nil
}

// TeamSize solves the team size problem: every agent's count of
// participating agents. It returns the (unanimous) count.
func TeamSize(cfg Config) (int, error) {
	res, err := runComplete(cfg)
	if err != nil {
		return 0, err
	}
	return res.Agents[0].TeamSize, nil
}

// LeaderElection returns the unanimously elected leader (the smallest
// label).
func LeaderElection(cfg Config) (labels.Label, error) {
	res, err := runComplete(cfg)
	if err != nil {
		return 0, err
	}
	return res.Agents[0].Leader, nil
}

// PerfectRenaming returns the new name (in {1..k}) adopted by each agent,
// indexed as cfg.Labels.
func PerfectRenaming(cfg Config) ([]int, error) {
	res, err := runComplete(cfg)
	if err != nil {
		return nil, err
	}
	names := make([]int, len(res.Agents))
	for i, a := range res.Agents {
		names[i] = a.NewName
	}
	return names, nil
}

// Gossip returns every agent's view of all initial values, keyed by
// label, indexed as cfg.Labels.
func Gossip(cfg Config) ([]map[labels.Label]string, error) {
	res, err := runComplete(cfg)
	if err != nil {
		return nil, err
	}
	out := make([]map[labels.Label]string, len(res.Agents))
	for i, a := range res.Agents {
		out[i] = a.Values
	}
	return out, nil
}

// runComplete runs SGL and errors unless every agent produced an output
// and all outputs agree.
func runComplete(cfg Config) (*Result, error) {
	res, err := Run(cfg)
	if err != nil {
		return nil, err
	}
	if !res.AllOutput {
		return nil, fmt.Errorf("sgl: not all agents output within %d steps", cfg.MaxSteps)
	}
	first := res.Agents[0].Output
	for _, a := range res.Agents[1:] {
		if len(a.Output) != len(first) {
			return nil, errors.New("sgl: agents disagree on the label set")
		}
		for i := range first {
			if a.Output[i] != first[i] {
				return nil, errors.New("sgl: agents disagree on the label set")
			}
		}
	}
	return res, nil
}
