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

// BagEntry is one label an agent has heard of, with its gossip value.
type BagEntry struct {
	Label labels.Label
	Value string
}

// Payload is the information an SGL agent shares at a meeting: its
// pre-meeting snapshot, per the model's simultaneous exchange. An agent
// publishes a *Payload and never changes it afterwards, so peers keep
// the pointer instead of copying the snapshot.
type Payload struct {
	Label labels.Label
	State State
	// Bag is sorted by label, so Bag[0] holds the smallest label the
	// agent has heard of. A label's value is the one its owner
	// started with, whichever bag it travelled through.
	Bag []BagEntry
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
	peers  []*Payload // a window of the agent's peerBuf
	inEdge bool
}

// agent is one SGL participant's program and state.
type agent struct {
	label labels.Label
	value string
	env   *trajectory.Env
	cat   uxs.Catalog

	phase2Budget Phase2Budget

	state State
	// bag is sorted by label and never mutated: a bag that grows is a
	// fresh slice, so a published snapshot can share it.
	bag       []BagEntry
	minLabel  labels.Label // bag[0].Label
	final     bool
	hasOutput bool
	output    map[labels.Label]string
	pub       *Payload // the last published snapshot
	// outputs counts the run's agents with output, for its stop test
	// (nil outside run).
	outputs *int

	// rv is the RV-asynch-poly trajectory: Config.Trajectory's, or a
	// fresh core.NewStepper made at wake when that is nil.
	rv      trajectory.Stepper
	rvCount int
	rvEntry int
	curDeg  int

	// pending queues a traveller's encounters for Step's decision
	// rules; peerBuf holds their peers' snapshots. Step empties both
	// once it has drained the queue.
	pending []encounterRec
	peerBuf []*Payload

	tokenAssigned  bool
	tokenLabel     labels.Label
	tokenSighted   bool // token met during the last move
	withToken      bool // co-located with token right now
	tokenHasOutput bool

	phase1Trace []esst.MoveRec
	failure     string

	// Step's program state (step.go).
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
		bag:          []BagEntry{{Label: l, Value: value}},
		minLabel:     l,
	}
}

// Publish implements sched.Agent. It returns the cached snapshot until
// the bag, state, final or hasOutput changes. Bags only grow, so the
// bag's length tells whether it changed.
func (a *agent) Publish() any {
	p := a.pub
	if p == nil || len(p.Bag) != len(a.bag) || p.State != a.state ||
		p.Final != a.final || p.HasOutput != a.hasOutput {
		p = &Payload{
			Label:     a.label,
			State:     a.state,
			Bag:       a.bag,
			Final:     a.final,
			HasOutput: a.hasOutput,
		}
		a.pub = p
	}
	return p
}

// OnMeet implements sched.Agent. It runs between two Step calls: bags
// union immediately; travellers additionally queue the snapshots for
// their transition rules.
func (a *agent) OnMeet(e sched.Encounter) {
	from := len(a.peerBuf)
	for _, p := range e.Peers {
		pl, ok := p.Payload.(*Payload)
		if !ok {
			continue
		}
		if a.state == StateTraveller {
			a.peerBuf = append(a.peerBuf, pl)
		}
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
		a.learn(pl.Bag)
	}
	if a.state == StateTraveller {
		to := len(a.peerBuf)
		a.pending = append(a.pending, encounterRec{peers: a.peerBuf[from:to:to], inEdge: e.InEdge})
	}
	// A parked ghost outputs the moment it learns its bag is complete.
	if a.state == StateGhost && a.final && !a.hasOutput {
		a.setOutput()
	}
}

// learn unions a peer's bag into the agent's by a sorted merge. The
// agent's bag is replaced, never mutated: by the peer's own bag when
// that holds every label the agent's does, else by a fresh merge.
func (a *agent) learn(bag []BagEntry) {
	added := 0
	for i, j := 0, 0; j < len(bag); j++ {
		for i < len(a.bag) && a.bag[i].Label < bag[j].Label {
			i++
		}
		if i == len(a.bag) || a.bag[i].Label != bag[j].Label {
			added++
		}
	}
	switch {
	case added == 0:
		return
	case len(a.bag)+added == len(bag):
		a.bag = bag
	default:
		merged := make([]BagEntry, 0, len(a.bag)+added)
		i, j := 0, 0
		for i < len(a.bag) && j < len(bag) {
			switch l, m := a.bag[i].Label, bag[j].Label; {
			case l < m:
				merged = append(merged, a.bag[i])
				i++
			case m < l:
				merged = append(merged, bag[j])
				j++
			default: // the same label, with the same value
				merged = append(merged, a.bag[i])
				i, j = i+1, j+1
			}
		}
		merged = append(merged, a.bag[i:]...)
		a.bag = append(merged, bag[j:]...)
	}
	a.minLabel = a.bag[0].Label
}

func (a *agent) setOutput() {
	a.markOutput()
	a.final = true
	a.output = make(map[labels.Label]string, len(a.bag))
	for _, e := range a.bag {
		a.output[e.Label] = e.Value
	}
}

// markOutput sets hasOutput and counts the agent the first time.
func (a *agent) markOutput() {
	if !a.hasOutput && a.outputs != nil {
		*a.outputs++
	}
	a.hasOutput = true
}

// drainPending applies the traveller rules to the queued encounters in
// arrival order, stopping at the first state change, and empties the
// queue.
func (a *agent) drainPending() {
	for _, enc := range a.pending {
		if a.decideTraveller(enc) {
			break
		}
	}
	a.pending, a.peerBuf = a.pending[:0], a.peerBuf[:0]
}

// decideTraveller applies the traveller transition rules of Algorithm
// SGL to one meeting snapshot; true when the agent changed state.
func (a *agent) decideTraveller(enc encounterRec) bool {
	// Rule 1: someone has heard of a smaller label -> ghost.
	for _, pl := range enc.peers {
		if pl.Bag[0].Label < a.label {
			a.state = StateGhost
			return true
		}
	}
	// Rule 2: a non-explorer present -> become explorer; the smallest
	// non-explorer becomes this explorer's token.
	var tok *Payload
	for _, pl := range enc.peers {
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
	// Trajectory, if non-nil, returns agent i's RV-asynch-poly
	// trajectory: a stepper emitting the moves core.NewStepper(Labels[i],
	// Env) makes walked in Graph from Starts[i], such as a route-book
	// replay. nil derives core.NewStepper. The replay is exact because
	// an explorer resumes RV only in Phase 2, after backtracking Phase
	// 1 to the node where it began, with its RV entry port unchanged:
	// the stepper sees the inputs of an uninterrupted walk.
	Trajectory func(i int) trajectory.Stepper
}

// Run executes Algorithm SGL and reports every agent's outcome.
func Run(cfg Config) (*Result, error) { return run(cfg, nil) }

// run is Run with a replaceable agent program: program, when non-nil,
// wraps each agent into the sched.Agent the runner drives (the package
// tests substitute the blocking reference program).
func run(cfg Config, program func(*agent) sched.Agent) (*Result, error) {
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
	outputs := 0
	for i := range agents {
		agents[i] = newAgent(cfg.Labels[i], values[i], cfg.Env, budget)
		agents[i].outputs = &outputs
		if cfg.Trajectory != nil {
			agents[i].rv = cfg.Trajectory(i)
		}
		schedAgents[i] = agents[i]
		if program != nil {
			schedAgents[i] = program(agents[i])
		}
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
		StopWhen:       func(*sched.Runner) bool { return outputs == k },
		Context:        cfg.Context,
		Observer:       cfg.Observer,
	}, adv)
	if err != nil {
		return nil, fmt.Errorf("sgl: %w", err)
	}
	defer r.Close()
	return report(agents, r.Run()), nil
}

// Unmet returns the Result of a run in which no two agents met within
// sum's events: every agent is still the traveller it started as, with
// no output. The engine reports the runs it answers in closed form
// (sched.Alternation) through it.
func Unmet(ls []labels.Label, sum sched.Summary) *Result {
	agents := make([]*agent, len(ls))
	for i, l := range ls {
		agents[i] = &agent{label: l, state: StateTraveller}
	}
	return report(agents, sum)
}

// report builds a run's Result from its agents' final states.
func report(agents []*agent, sum sched.Summary) *Result {
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
	return res
}
