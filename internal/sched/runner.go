// Package sched simulates the paper's asynchronous adversary. Agents
// choose routes; the adversary controls the walk along them. The
// continuous model is discretized into half-steps without losing
// adversarial power (DESIGN.md §2.2): an agent is either at a node or
// strictly inside an edge, the adversary repeatedly picks one agent and
// advances it half a step (leave node / arrive at far node) or wakes a
// dormant agent, and a meeting is forced exactly when
//
//   - two agents are simultaneously at the same node, or
//   - two agents are simultaneously inside the same edge travelling in
//     opposite directions (continuous walks must cross).
//
// An agent program is a resumable state machine (Agent.Step) that the
// runner calls inline on its own goroutine, at wake and after every
// arrival, to learn the agent's next exit port: the program picks the
// route, the adversary only the timing (DESIGN.md §2.2, "execution
// model"). Executions are fully deterministic given the adversary.
package sched

import (
	"context"
	"fmt"
	"sync"

	"meetpoly/internal/graph"
	"meetpoly/internal/rverr"
)

// Observation is everything the model lets an agent see upon arriving at
// a node: its degree and the entry port. Entry is -1 at the agent's
// starting node. Node identities are deliberately absent.
type Observation struct {
	Degree int
	Entry  int
}

// Peer is the information another agent shares during a meeting.
type Peer struct {
	ID      int
	Payload any
}

// Encounter describes one meeting from one participant's point of view.
type Encounter struct {
	Step   int  // scheduler step at which the meeting happened
	InEdge bool // true for a crossing meeting inside an edge
	// Peers are the other participants' published payloads, in ascending
	// ID order. The slice is the runner's scratch and is valid only
	// during OnMeet: an agent that keeps peers copies them (it may keep
	// the payloads themselves, which never change).
	Peers []Peer
}

// Agent is a participant in a simulation.
//
// Step is the agent's program, run as an explicit resumable state
// machine: the runner invokes it once at wake (with Entry == -1) and
// once after every completed traversal, with the arrival observation,
// and the returned Action is the agent's next move. Returning
// Action{Halt: true} halts the agent forever (it remains physically
// present and meetable). The Proc handle is the agent's channel to the
// runner's observer (Proc.Phase).
//
// Publish and OnMeet run between Step invocations, on the runner's
// goroutine, so state they mutate is visible to the next Step without
// synchronization.
type Agent interface {
	Step(p *Proc, o Observation) Action
	// Publish returns the payload shared with peers at a meeting. Peers
	// may keep it past their OnMeet, so a value Publish returned must
	// not change afterwards: an agent whose shared state changes
	// publishes a new value (for example a pointer to a fresh
	// snapshot). Returning a pointer or a stored interface value keeps
	// the meeting path allocation-free.
	Publish() any
	// OnMeet delivers a meeting. It runs before the agent's next Step;
	// e.Peers is valid only until it returns.
	OnMeet(e Encounter)
}

// Action is one agent decision: halt forever, or traverse the edge
// leaving the current node through Port.
type Action struct {
	Halt bool
	Port int
}

// Proc is an agent's handle on its runner.
type Proc struct {
	r  *Runner
	id int
}

// Phase announces an algorithm-level phase change to the runner's
// observer (no-op without one).
func (p *Proc) Phase(name string) {
	if p.r.obs != nil {
		p.r.obs.OnPhase(p.id, name)
	}
}

// Status of an agent in the simulation.
type Status uint8

// Agent lifecycle states.
const (
	StatusDormant Status = iota + 1
	StatusActive
	StatusHalted
)

func (s Status) String() string {
	switch s {
	case StatusDormant:
		return "dormant"
	case StatusActive:
		return "active"
	case StatusHalted:
		return "halted"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// PosKind distinguishes node occupancy from edge interiors.
type PosKind uint8

// Position kinds.
const (
	AtNode PosKind = iota + 1
	InEdge
)

// Position is an agent's physical location.
type Position struct {
	Kind PosKind
	Node int // occupied node when AtNode
	From int // tail node when InEdge
	To   int // head node when InEdge
}

// agentState is the runner's bookkeeping for one agent.
type agentState struct {
	agent  Agent
	proc   *Proc
	id     int
	status Status
	pos    Position

	pendingPort  int  // committed exit port when hasPending
	pendingEntry int  // arrival entry port of the pending traversal (set at half-step 1)
	hasPending   bool // an un-executed Move request exists
	traversals   int  // completed edge traversals
}

// EventKind enumerates adversary moves.
type EventKind uint8

// Adversary event kinds.
const (
	EventWake EventKind = iota + 1
	EventAdvance
)

// Event is one adversary decision.
type Event struct {
	Kind  EventKind
	Agent int
}

// Meeting is the record of one meeting: Summary.FirstMeeting and the
// observer's OnMeeting event.
type Meeting struct {
	Step         int
	Participants []int
	InEdge       bool
	Node         int    // meeting node when !InEdge
	Edge         [2]int // canonical edge when InEdge
	// Cost is the total completed edge traversals (all agents) when the
	// meeting fired; Committed additionally counts traversals in
	// progress, which the model obliges agents to finish.
	Cost      int
	Committed int
}

// Config describes a simulation.
type Config struct {
	Graph  *graph.Graph
	Starts []int   // starting node per agent (distinct)
	Agents []Agent // same length as Starts
	// InitiallyAwake lists agents woken before the first adversary event.
	// The paper's adversary wakes at least one agent; Run enforces that
	// either this list is non-empty or the adversary issues a wake event
	// before any advance.
	InitiallyAwake []int
	// StopWhen, if non-nil, ends the run after any event for which it
	// returns true. Typical: stop at first meeting.
	StopWhen func(r *Runner) bool
	// StopAtFirstMeeting ends the run once any meeting has fired: the
	// rendezvous-shaped StopWhen, as a field so the hot loop tests a
	// flag instead of calling a closure per event.
	StopAtFirstMeeting bool
	// MaxSteps bounds the number of adversary events (safety net).
	MaxSteps int
	// Context, if non-nil, aborts the run between adversary events when
	// canceled; the Summary then reports Canceled.
	Context context.Context
	// Observer, if non-nil, receives execution events (see Observer).
	Observer Observer
}

// Runner executes a simulation.
type Runner struct {
	g      *graph.Graph
	agents []*agentState
	adv    Adversary

	steps int
	// met reports that a meeting has fired; first is its record
	// (Summary.FirstMeeting). Later meetings reach only the observer.
	met   bool
	first Meeting

	// Maintained aggregates: how many agents are still dormant and how
	// many hold an uncommitted move. They turn the per-event liveness
	// check (and the adversaries' wake scans, via View.AnyDormant) into
	// two integer reads instead of per-agent loops.
	dormantCount int
	pendingCount int

	stopWhen    func(r *Runner) bool
	stopAtMeet  bool
	maxSteps    int
	initialWake []int
	ctx         context.Context
	obs         Observer
	canceled    bool

	// Hot-path scratch, reused across events so the per-half-step cost
	// is allocation-free — and, via scratch, across runs, so steady-state
	// sweeps allocate almost nothing per run (see runScratch).
	scratch     *runScratch
	viewBuf     View
	contacts    []bool      // pair contact bits, i*k+j with i<j, kept current
	curContacts []bool      // pair contact bits assembled by a full detect
	grouped     []bool      // per-agent: already claimed by a node group
	edgeGroup   []int32     // per graph.EdgeIndex: 1+group slot of the crossing group
	edgeTouched []int32     // edge indices written in edgeGroup this check
	groups      []meetGroup // group slot pool
	nGroups     int
	meetBuf     []Peer // a firing meeting's payloads, then one member's peers

	// Contact-free stretches (lockstep): rot is the adversary's rotation
	// when the run qualifies, nil otherwise; walkers and replays are the
	// two agents and their route replays.
	rot     *int
	walkers [2]*Walker
	replays [2]replay

	// Solo stretches (solo): the adversary when it implements forcer,
	// nil otherwise.
	forcer forcer
}

// runScratch is the pooled per-run buffer set. Runners acquire one in
// NewRunner and release it in Close, so a worker that executes runs
// back-to-back (the sweep steady state) reuses the same memory instead
// of re-allocating per-agent state, contact bitsets and view buffers
// for every cell.
type runScratch struct {
	states      []agentState
	ptrs        []*agentState
	contacts    []bool
	curContacts []bool
	grouped     []bool
	edgeGroup   []int32
	edgeTouched []int32
	groups      []meetGroup
	meetBuf     []Peer
}

var scratchPool = sync.Pool{New: func() any { return new(runScratch) }}

// boolBuf returns b resized to n cleared slots, reusing capacity.
func boolBuf(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = false
	}
	return b
}

// ctxPollStride is how many adversary events pass between context
// checks. Cancellation is documented to land "between events"; polling
// every event made ctx.Err a measurable share of the half-step cost, so
// the runner amortizes the check without changing the contract.
const ctxPollStride = 64

// meetGroup is one co-located agent group found by detectMeetings.
type meetGroup struct {
	members []int
	inEdge  bool
	node    int
	edge    [2]int
}

// Adversary chooses the schedule. Next returns ok=false to end the run
// (e.g. nothing left to do).
type Adversary interface {
	Next(v *View) (Event, bool)
}

// NewRunner validates the configuration and prepares a runner. Call Run
// to execute and Close to release its pooled buffers.
func NewRunner(cfg Config, adv Adversary) (*Runner, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("sched: nil graph: %w", rverr.ErrInvalidScenario)
	}
	if len(cfg.Agents) == 0 || len(cfg.Agents) != len(cfg.Starts) {
		return nil, fmt.Errorf("sched: %d agents vs %d starts: %w",
			len(cfg.Agents), len(cfg.Starts), rverr.ErrInvalidScenario)
	}
	seen := make(map[int]bool)
	for _, s := range cfg.Starts {
		if s < 0 || s >= cfg.Graph.N() {
			return nil, fmt.Errorf("sched: start node %d out of range: %w", s, rverr.ErrInvalidScenario)
		}
		if seen[s] {
			return nil, fmt.Errorf("sched: duplicate start node %d: %w", s, rverr.ErrInvalidScenario)
		}
		seen[s] = true
	}
	if cfg.MaxSteps <= 0 {
		return nil, fmt.Errorf("sched: MaxSteps must be positive: %w", rverr.ErrInvalidScenario)
	}
	for _, i := range cfg.InitiallyAwake {
		if i < 0 || i >= len(cfg.Agents) {
			return nil, fmt.Errorf("sched: InitiallyAwake index %d out of range: %w", i, rverr.ErrInvalidScenario)
		}
	}
	// Every validation precedes the scratch acquisition below: an error
	// return past scratchPool.Get would leak the scratch (nobody would
	// ever Close this runner), so no error path may exist after it.
	r := &Runner{
		g:          cfg.Graph,
		adv:        adv,
		stopWhen:   cfg.StopWhen,
		stopAtMeet: cfg.StopAtFirstMeeting,
		maxSteps:   cfg.MaxSteps,
		ctx:        cfg.Context,
		obs:        cfg.Observer,
	}
	k := len(cfg.Agents)
	s := scratchPool.Get().(*runScratch)
	r.scratch = s
	if cap(s.states) < k {
		s.states = make([]agentState, k)
		s.ptrs = make([]*agentState, k)
	} else {
		s.states = s.states[:k]
		s.ptrs = s.ptrs[:k]
		clear(s.states)
	}
	for i, a := range cfg.Agents {
		st := &s.states[i]
		st.agent = a
		st.id = i
		st.status = StatusDormant
		st.pos = Position{Kind: AtNode, Node: cfg.Starts[i]}
		// Procs are heap-allocated per run (not pooled): agents keep
		// them past the Step call that received them (Explorer's
		// PhaseHook captures p), so a pooled Proc could alias a later
		// run's.
		st.proc = &Proc{r: r, id: i}
		s.ptrs[i] = st
	}
	r.agents = s.ptrs
	r.initialWake = append(r.initialWake, cfg.InitiallyAwake...)
	r.dormantCount = k
	s.contacts = boolBuf(s.contacts, k*k)
	s.curContacts = boolBuf(s.curContacts, k*k)
	s.grouped = boolBuf(s.grouped, k)
	r.contacts, r.curContacts, r.grouped = s.contacts, s.curContacts, s.grouped
	r.edgeGroup = s.edgeGroup
	r.edgeTouched = s.edgeTouched[:0]
	r.groups = s.groups
	r.meetBuf = s.meetBuf
	r.viewBuf = View{g: r.g, dormant: &r.dormantCount, agents: r.agents}
	r.bindLockstep(cfg, adv)
	r.forcer, _ = adv.(forcer)
	return r, nil
}

// forcer is an adversary whose schedule, once no agent is dormant and
// every agent but one has halted, is that agent's advances: RoundRobin,
// Avoider and Random. forced leaves the adversary where that many
// calls of Next, each returning an advance of agent, would.
type forcer interface {
	forced(agent, events int)
}

// rotator is an adversary whose schedule, while both agents of a
// two-agent run hold a move and the preferred half-step creates no
// contact, is strict alternation from its rotation: RoundRobin and
// Avoider. rotation returns the index of the agent the next advance
// prefers (a value of 2 wraps to 0).
type rotator interface {
	rotation() *int
}

// replay is a route-book replay (trajectory.RouteBook.Stepper): a
// stepper whose next moves are a published port array.
type replay interface {
	Published() []int32
	Skip(n int)
}

// bindLockstep decides, once per run, whether Run may apply
// contact-free stretches (see lockstep): exactly two agents, no
// StopWhen, both agents Walkers replaying a route book, and a rotator
// adversary. Every other run takes the per-event path alone.
func (r *Runner) bindLockstep(cfg Config, adv Adversary) {
	rot, ok := adv.(rotator)
	if !ok || len(cfg.Agents) != 2 || cfg.StopWhen != nil {
		return
	}
	for i, a := range cfg.Agents {
		w, ok := a.(*Walker)
		if !ok {
			return
		}
		rp, ok := w.Stepper.(replay)
		if !ok {
			return
		}
		r.walkers[i], r.replays[i] = w, rp
	}
	r.rot = rot.rotation()
}

// Run executes the simulation until the adversary rests, StopWhen fires,
// MaxSteps is reached, or no agent can act. It returns the execution
// summary. Run may be called once.
//
//rvlint:hotpath
func (r *Runner) Run() Summary {
	for _, i := range r.initialWake {
		r.wake(i)
	}
	// Waking changes no positions, so one full detection pass after the
	// initial wakes covers any configuration the validator admits.
	r.detectMeetings()
	for r.steps < r.maxSteps {
		// Cancellation audit: this stride poll is sound because steps
		// advances on EVERY applied event — apply is followed
		// unconditionally by r.steps++, for wakes as much as advances —
		// and every path that does not advance steps (stop conditions,
		// a resting adversary, no actionable agent) exits the loop. An
		// adversary therefore cannot defer the poll by more than
		// ctxPollStride events, no matter which event mix it drives.
		if r.ctx != nil && r.steps%ctxPollStride == 0 && r.ctx.Err() != nil {
			r.canceled = true
			break
		}
		if r.stopAtMeet && r.met {
			break
		}
		if r.stopWhen != nil && r.stopWhen(r) {
			break
		}
		if !r.anyActionable() {
			break
		}
		// A stretch that ran to its limit owes the loop's checks again;
		// one that stopped short leaves the next event to the adversary.
		if r.rot != nil && r.pendingCount == 2 && r.lockstep() {
			continue
		}
		// With no agent dormant, one move pending means one agent left
		// that is not halted: every event is its advance. A solo stretch
		// that stopped short of its limit met a stop check: the run is
		// over.
		if r.forcer != nil && r.pendingCount == 1 && r.dormantCount == 0 {
			if r.solo() {
				continue
			}
			break
		}
		v := r.view()
		ev, ok := r.adv.Next(v)
		if !ok {
			break
		}
		entered := r.apply(ev)
		if r.obs != nil {
			r.obs.OnEvent(r.steps, ev)
		}
		r.steps++
		if entered {
			// Half-step 1 (leaving a node) can create a crossing contact;
			// arrivals already ran their detection inside apply, before
			// the arriving agent's next decision, and wakes move nobody.
			r.detectAfterMove(ev.Agent)
		}
	}
	return r.summary()
}

// Close releases the runner's pooled buffers. Safe to call many times.
// A closed runner's Summary values remain valid (they are copies), but
// the live accessors (Traversals, TotalCost) must not be called after
// Close.
func (r *Runner) Close() {
	s := r.scratch
	if s == nil {
		return
	}
	r.scratch = nil
	// The Put is deferred so the scratch returns to the pool even if a
	// release step below panics: a leaked scratch is a silent allocation
	// regression that no test would catch.
	defer scratchPool.Put(s)
	// Store the (possibly grown) buffers back and drop every reference to
	// caller-owned values before pooling. The pointer-bearing buffers are
	// cleared to FULL capacity, not current length: a previous, larger
	// tenant's agents and procs would otherwise stay reachable past
	// the live prefix and leak into every later run sharing the scratch.
	s.contacts, s.curContacts, s.grouped = r.contacts, r.curContacts, r.grouped
	s.edgeGroup, s.edgeTouched = r.edgeGroup, r.edgeTouched
	s.groups = r.groups
	s.meetBuf = r.meetBuf
	clear(s.states[:cap(s.states)])
	clear(s.ptrs[:cap(s.ptrs)])
	clear(s.meetBuf[:cap(s.meetBuf)])
	r.agents = nil
	r.viewBuf = View{}
	r.contacts, r.curContacts, r.grouped = nil, nil, nil
	r.edgeGroup, r.edgeTouched, r.groups = nil, nil, nil
	r.meetBuf = nil
}

// lane is one walker's state inside a contact-free stretch. Its
// position is an edge (tail, head): the agent is at node tail when
// head == tail (the graph has no self-loops) and inside the edge
// otherwise, so two lanes are in contact exactly when one's tail is
// the other's head and vice versa.
type lane struct {
	ports      []int32 // the route's published ports from the stretch's start
	used       int     // ports consumed by arrivals
	tail, head int
	port       int // pending exit port
	entry      int // entry port of the pending arrival
	trav       int
}

// lockstep applies a contact-free stretch (DESIGN.md §2.2): while both
// agents of a qualifying run hold a move, RoundRobin and Avoider
// alternate them from their rotation, so the stretch applies those
// half-steps straight off the routes' published ports instead of asking
// the adversary for each. It stops before a half-step that would create
// contact, before an arrival whose decision the published ports do not
// hold (the route must grow, or the walker halts), at the next context
// poll and at the budget; each of those events is the per-event path's.
// Inside a stretch no meeting fires and no agent decides anything its
// route does not hold, so it leaves the runner, the replays, the
// rotation and an attached observer where the per-event path would. It
// reports whether it ran to its step limit.
//
//rvlint:hotpath
func (r *Runner) lockstep() bool {
	limit := (r.steps/ctxPollStride + 1) * ctxPollStride
	if limit > r.maxSteps {
		limit = r.maxSteps
	}
	var ln [2]lane
	for k := range ln {
		st, l := r.agents[k], &ln[k]
		if st.pos.Kind == InEdge {
			l.tail, l.head = st.pos.From, st.pos.To
		} else {
			l.tail, l.head = st.pos.Node, st.pos.Node
		}
		l.port, l.entry, l.trav = st.pendingPort, st.pendingEntry, st.traversals
		// A walker that has met halts at its next decision (StopAtMeeting),
		// which the per-event path delivers: it gets no ports here.
		if w := r.walkers[k]; !w.StopAtMeeting || w.metCount == 0 {
			l.ports = r.replays[k].Published()
		}
	}
	g, obs := r.g, r.obs
	i := *r.rot
	if i >= 2 {
		i = 0
	}
	a, b := &ln[i], &ln[1-i]
	steps := r.steps
	for steps < limit {
		if a.tail == a.head {
			// Leaving a.tail through the pending port.
			to, entry := g.Succ(a.tail, a.port)
			if b.tail == to && b.head == a.tail {
				break
			}
			a.head, a.entry = to, entry
		} else {
			// Arrival at a.head, then the walker's next decision.
			if b.tail == a.head && b.head == a.head || a.used == len(a.ports) {
				break
			}
			p := int(a.ports[a.used])
			if uint(p) >= uint(g.Degree(a.head)) {
				break // commit rejects it loudly on the per-event path
			}
			from := a.tail
			a.tail, a.port = a.head, p
			a.used++
			a.trav++
			if obs != nil {
				obs.OnTraversal(i, from, a.head)
			}
		}
		if obs != nil {
			obs.OnEvent(steps, Event{Kind: EventAdvance, Agent: i})
		}
		steps++
		a, b = b, a
		i ^= 1
	}
	if steps == r.steps {
		return false
	}
	for k := range ln {
		st, l := r.agents[k], &ln[k]
		if l.tail != l.head {
			st.pos = Position{Kind: InEdge, From: l.tail, To: l.head}
		} else {
			st.pos = Position{Kind: AtNode, Node: l.tail}
		}
		st.pendingPort, st.pendingEntry, st.traversals = l.port, l.entry, l.trav
		r.replays[k].Skip(l.used)
	}
	r.steps = steps
	r.contacts[1] = false // every half-step ended out of contact
	*r.rot = 2 - i        // the last advanced agent, 1-i, plus one
	return steps == limit
}

// solo applies a solo stretch (DESIGN.md §2.2): once no agent is
// dormant and every agent but one has halted, a forcer adversary can
// only advance the last mover, so the stretch applies its half-steps
// through advance without asking the adversary for each. Between
// events it makes the Run loop's stop checks, in the loop's order; it
// returns at the next context poll and at the budget, leaving those
// checks to the loop, and then tells the adversary how many events it
// took. The runner's state is updated event by event, so StopWhen,
// agents and an attached observer see what the per-event path shows
// them. It reports whether it ran to its step limit; otherwise a stop
// check fired and the run is over.
//
//rvlint:hotpath
func (r *Runner) solo() bool {
	limit := (r.steps/ctxPollStride + 1) * ctxPollStride
	if limit > r.maxSteps {
		limit = r.maxSteps
	}
	i := 0
	for r.agents[i].status != StatusActive {
		i++
	}
	start := r.steps
	for {
		entered := r.advance(i)
		if r.obs != nil {
			r.obs.OnEvent(r.steps, Event{Kind: EventAdvance, Agent: i})
		}
		r.steps++
		if entered {
			r.detectAfterMove(i)
		}
		if r.steps == limit || r.stopAtMeet && r.met || r.stopWhen != nil && r.stopWhen(r) || r.pendingCount == 0 {
			break
		}
	}
	r.forcer.forced(i, r.steps-start)
	return r.steps == limit
}

// Alternates reports whether adv alternates the two agents of a
// two-agent run from its rotation while neither's preferred half-step
// creates contact: a *RoundRobin or an *Avoider, the adversaries
// lockstep serves.
func Alternates(adv Adversary) bool {
	_, ok := adv.(rotator)
	return ok
}

// Rotation returns the rotation of an Alternates adversary (2 wraps to
// 0): the agent whose half-step it prefers next. Callers save and set it
// to run a schedule again from the same starting point.
func Rotation(adv Adversary) *int { return adv.(rotator).rotation() }

// Alternation is the closed form of a two-agent run, both agents awake
// and holding moves, whose every event up to budget is a contact-free
// half-step of an Alternates adversary — the run lockstep would apply
// stretch by stretch, answered without walking it. From rotation i0 (2
// wraps to 0), agent i0 makes ⌈budget/2⌉ half-steps and the other
// ⌊budget/2⌋; an agent's traversals are its half-steps / 2, and an odd
// count leaves it inside an edge, which Committed counts. Alternation
// writes the rotation back exactly as lockstep does and returns the
// Summary Run would: no meeting, the budget consumed. Its Traversals
// reuse trav's array when trav holds two counts, and are allocated
// otherwise. The caller proves the alternation contact-free and the
// agents' routes long enough.
func Alternation(adv Adversary, budget int, trav []int) Summary {
	rot := adv.(rotator).rotation()
	i0 := *rot
	if i0 >= 2 {
		i0 = 0
	}
	var halves [2]int
	halves[i0], halves[1-i0] = budget-budget/2, budget/2
	if len(trav) != 2 {
		trav = make([]int, 2)
	}
	trav[0], trav[1] = halves[0]/2, halves[1]/2
	s := Summary{Steps: budget, Exhausted: true, Traversals: trav}
	for k, t := range s.Traversals {
		s.TotalCost += t
		s.Account.MaxPerAgent = max(s.Account.MaxPerAgent, t)
		s.Account.Committed += t + halves[k]%2
	}
	*rot = 2 - (i0+budget%2)%2
	return s
}

// anyActionable reports whether some agent is dormant or has a pending move.
func (r *Runner) anyActionable() bool {
	return r.dormantCount > 0 || r.pendingCount > 0
}

// wake activates a dormant agent and records its first decision.
func (r *Runner) wake(i int) {
	st := r.agents[i]
	if st.status != StatusDormant {
		return
	}
	st.status = StatusActive
	r.dormantCount--
	r.commit(st, st.agent.Step(st.proc, Observation{Degree: r.g.Degree(st.pos.Node), Entry: -1}))
}

// commit validates and records one agent decision.
//
//rvlint:hotpath
func (r *Runner) commit(st *agentState, a Action) {
	// An agent deciding has no uncommitted move: commit runs right after
	// a wake or an arrival, both of which leave hasPending false.
	if a.Halt {
		st.status = StatusHalted
		return
	}
	deg := r.g.Degree(st.pos.Node)
	if a.Port < 0 || a.Port >= deg {
		invalidPort(a.Port, deg)
	}
	st.pendingPort = a.Port
	st.hasPending = true
	r.pendingCount++
}

// apply executes an adversary event and reports whether it was a
// half-step 1 (the agent entered an edge), which is the one transition
// whose meeting detection the Run loop still owes. An invalid event is a
// programming error in the strategy and panics loudly.
//
//rvlint:hotpath
func (r *Runner) apply(ev Event) (enteredEdge bool) {
	if ev.Agent < 0 || ev.Agent >= len(r.agents) {
		r.invalidEvent(ev)
	}
	st := r.agents[ev.Agent]
	switch ev.Kind {
	case EventWake:
		if st.status != StatusDormant {
			r.invalidEvent(ev)
		}
		r.wake(ev.Agent)
		return false
	case EventAdvance:
		if st.status != StatusActive || !st.hasPending {
			r.invalidEvent(ev)
		}
		return r.advance(ev.Agent)
	default:
		r.invalidEvent(ev)
		return false
	}
}

// advance moves agent i, which holds a move, one half-step: apply's
// advance event and each event of a solo stretch. It reports whether
// the agent entered an edge, whose meeting detection the caller owes.
//
//rvlint:hotpath
func (r *Runner) advance(i int) (enteredEdge bool) {
	st := r.agents[i]
	if st.pos.Kind == AtNode {
		// Half-step 1: leave the node. The arrival entry port is
		// resolved here, by the same Succ lookup, so the arrival
		// half-step need not repeat it.
		from := st.pos.Node
		to, entry := r.g.Succ(from, st.pendingPort)
		st.pos = Position{Kind: InEdge, From: from, To: to}
		st.pendingEntry = entry
		return true
	}
	// Half-step 2: arrive.
	from, to := st.pos.From, st.pos.To
	entry := st.pendingEntry
	st.pos = Position{Kind: AtNode, Node: to}
	st.traversals++
	st.hasPending = false
	r.pendingCount--
	if r.obs != nil {
		r.obs.OnTraversal(i, from, to)
	}
	// Meetings caused by the arrival must be delivered before the
	// agent decides its next action. (The adversary view is synced
	// once per event by the Run loop; nothing here reads it.)
	r.detectAfterMove(i)
	r.commit(st, st.agent.Step(st.proc, Observation{Degree: r.g.Degree(to), Entry: entry}))
	return false
}

// invalidEvent fails loudly on a malformed adversary event. Cold by
// construction: it exists so apply's hot body carries no fmt call.
func (r *Runner) invalidEvent(ev Event) {
	panic(fmt.Sprintf("sched: adversary issued invalid event %+v", ev))
}

// invalidPort fails loudly on an out-of-range port decision (commit's
// cold path, kept out of its hot body).
func invalidPort(port, deg int) {
	panic(fmt.Sprintf("sched: agent chose invalid port %d at degree-%d node", port, deg))
}

// inContact reports the position-level contact condition between two
// agents: co-located at a node, or inside the same edge in opposite
// directions. This is exactly the pair condition detectMeetings encodes
// in its contact bitsets.
func inContact(a, b *agentState) bool {
	if a.pos.Kind == AtNode {
		return b.pos.Kind == AtNode && a.pos.Node == b.pos.Node
	}
	return b.pos.Kind == InEdge && a.pos.From == b.pos.To && a.pos.To == b.pos.From
}

// detectAfterMove is the incremental fast path of meeting detection:
// after agent i moved a half-step, only pairs involving i can change.
// If i gained a new contact the full detector runs (it owns group
// assembly and encounter delivery), or, with two agents, the one
// possible meeting fires directly; otherwise the pair bits involving i
// are refreshed in place and nothing fires. This removes the full
// all-pairs rescan from the per-event cost without changing which
// meetings fire or when.
//
//rvlint:hotpath
func (r *Runner) detectAfterMove(i int) {
	k := len(r.agents)
	si := r.agents[i]
	if k == 2 {
		// Two-agent fast path (the dominant shape): one opponent, and
		// the (0,1) pair bit is index 1. A new contact is the one group
		// detectMeetings would assemble, {0, 1}, at the node or inside
		// the edge agent 0 occupies, so it fires directly.
		if inContact(si, r.agents[1-i]) {
			if !r.contacts[1] {
				if a := r.agents[0]; a.pos.Kind == AtNode {
					r.fireMeeting(pairMembers, false, a.pos.Node, [2]int{})
				} else {
					r.fireMeeting(pairMembers, true, 0, canonEdge(a.pos.From, a.pos.To))
				}
				r.contacts[1] = true
			}
		} else {
			r.contacts[1] = false
		}
		return
	}
	for j := 0; j < k; j++ {
		if j == i {
			continue
		}
		b := pairBit(i, j, k)
		if inContact(si, r.agents[j]) {
			if !r.contacts[b] {
				// New contact: the full detector recomputes every group
				// against the current bits and fires exactly the groups
				// holding a fresh pair — all of which involve i.
				r.detectMeetings()
				return
			}
		} else {
			r.contacts[b] = false
		}
	}
}

// pairMembers is the member list of a two-agent meeting. fireMeeting
// only reads its members, and recordMeeting copies them.
var pairMembers = []int{0, 1}

// pairBit returns the index of the (i, j) contact bit in the k*k pair
// bitset (order-normalized).
func pairBit(i, j, k int) int {
	if i > j {
		i, j = j, i
	}
	return i*k + j
}

// newGroup claims a group slot from the reusable pool.
func (r *Runner) newGroup() int {
	if r.nGroups == len(r.groups) {
		r.groups = append(r.groups, meetGroup{})
	}
	g := r.nGroups
	r.nGroups++
	members := r.groups[g].members[:0]
	r.groups[g] = meetGroup{members: members}
	return g
}

// detectMeetings fires encounters for every co-located group that gained
// a new contact pair since the last check, and wakes dormant
// participants. It runs after every adversary event, so it works on
// reused dense buffers — pair bitsets and an edge-indexed group table —
// instead of allocating maps.
func (r *Runner) detectMeetings() {
	k := len(r.agents)
	cur := r.curContacts
	for i := range cur {
		cur[i] = false
	}
	r.nGroups = 0

	// Node groups, in ascending lowest-member order.
	grouped := r.grouped
	for i := range grouped {
		grouped[i] = false
	}
	for i := 0; i < k; i++ {
		si := r.agents[i]
		if si.pos.Kind != AtNode || grouped[i] {
			continue
		}
		gi := -1
		for j := i + 1; j < k; j++ {
			sj := r.agents[j]
			if sj.pos.Kind != AtNode || sj.pos.Node != si.pos.Node {
				continue
			}
			if gi < 0 {
				gi = r.newGroup()
				r.groups[gi].node = si.pos.Node
				r.groups[gi].members = append(r.groups[gi].members, i)
			}
			r.groups[gi].members = append(r.groups[gi].members, j)
			grouped[j] = true
		}
		if gi >= 0 {
			ms := r.groups[gi].members
			for x := 0; x < len(ms); x++ {
				for y := x + 1; y < len(ms); y++ {
					cur[pairBit(ms[x], ms[y], k)] = true
				}
			}
		}
	}

	// Crossing groups: same edge, opposite directions, keyed by the
	// dense graph.EdgeIndex of the occupied edge.
	for i := 0; i < k; i++ {
		si := r.agents[i]
		if si.pos.Kind != InEdge {
			continue
		}
		for j := i + 1; j < k; j++ {
			sj := r.agents[j]
			if sj.pos.Kind != InEdge {
				continue
			}
			if si.pos.From == sj.pos.To && si.pos.To == sj.pos.From {
				if len(r.edgeGroup) < r.g.M() {
					r.edgeGroup = make([]int32, r.g.M())
				}
				e := r.g.EdgeIndex(si.pos.From, si.pendingPort)
				gi := int(r.edgeGroup[e]) - 1
				if gi < 0 {
					gi = r.newGroup()
					r.groups[gi].inEdge = true
					r.groups[gi].edge = canonEdge(si.pos.From, si.pos.To)
					r.edgeGroup[e] = int32(gi) + 1
					r.edgeTouched = append(r.edgeTouched, int32(e))
				}
				r.groups[gi].members = appendUnique(r.groups[gi].members, i)
				r.groups[gi].members = appendUnique(r.groups[gi].members, j)
				cur[pairBit(i, j, k)] = true
			}
		}
	}
	for _, e := range r.edgeTouched {
		r.edgeGroup[e] = 0
	}
	r.edgeTouched = r.edgeTouched[:0]

	// Which groups contain a newly-in-contact pair? Fire those, in group
	// discovery order (node groups by lowest member, then crossings).
	for gi := 0; gi < r.nGroups; gi++ {
		gr := &r.groups[gi]
		isNew := false
		for x := 0; x < len(gr.members) && !isNew; x++ {
			for y := x + 1; y < len(gr.members); y++ {
				b := pairBit(gr.members[x], gr.members[y], k)
				if cur[b] && !r.contacts[b] {
					isNew = true
					break
				}
			}
		}
		if !isNew {
			continue
		}
		r.fireMeeting(gr.members, gr.inEdge, gr.node, gr.edge)
	}
	r.contacts, r.curContacts = cur, r.contacts
}

// fireMeeting publishes payloads, delivers OnMeet to every participant
// and wakes dormant ones. Every member's payload is published before
// any OnMeet runs, so each sees the others' pre-meeting state. The
// payloads and each member's peer list live in the runner-owned
// meetBuf, which is why Encounter.Peers is valid only during OnMeet,
// and the Meeting record is built only when something reads it.
//
//rvlint:hotpath
func (r *Runner) fireMeeting(members []int, inEdge bool, node int, edge [2]int) {
	n := len(members)
	buf := r.meetBuffer(n)
	payloads, peers := buf[:n], buf[n:]
	for idx, id := range members {
		payloads[idx] = Peer{ID: id, Payload: r.agents[id].agent.Publish()}
	}
	// Peers are listed in ascending ID order. Node groups are already
	// ascending; a crossing group of three or more may not be.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && payloads[j].ID < payloads[j-1].ID; j-- {
			payloads[j], payloads[j-1] = payloads[j-1], payloads[j]
		}
	}
	for _, id := range members {
		k := 0
		for _, p := range payloads {
			if p.ID != id {
				peers[k] = p
				k++
			}
		}
		r.agents[id].agent.OnMeet(Encounter{Step: r.steps, InEdge: inEdge, Peers: peers})
	}
	if !r.met || r.obs != nil {
		r.recordMeeting(members, inEdge, node, edge)
	}
	// A dormant agent is woken by an agent visiting its start node.
	for _, id := range members {
		if r.agents[id].status == StatusDormant {
			r.wake(id)
		}
	}
}

// meetBuffer returns meetBuf sized for a meeting of n agents: n
// payloads followed by one member's n-1 peers. It allocates only when a
// meeting is larger than every earlier one on this scratch.
func (r *Runner) meetBuffer(n int) []Peer {
	if cap(r.meetBuf) < 2*n-1 {
		r.meetBuf = make([]Peer, 2*n-1)
	}
	return r.meetBuf[:2*n-1]
}

// recordMeeting builds the Meeting record of a fired group, with its own
// Participants copy: the run's first meeting (Summary.FirstMeeting), and
// every meeting when an observer is attached. It is fireMeeting's cold
// path, kept out of its allocation-free body.
func (r *Runner) recordMeeting(members []int, inEdge bool, node int, edge [2]int) {
	committed := 0
	for _, st := range r.agents {
		if st.pos.Kind == InEdge {
			committed++
		}
	}
	m := Meeting{
		Step: r.steps, Participants: append([]int(nil), members...),
		InEdge: inEdge, Node: node, Edge: edge,
		Cost: r.TotalCost(), Committed: r.TotalCost() + committed,
	}
	if !r.met {
		r.met, r.first = true, m
	}
	if r.obs != nil {
		r.obs.OnMeeting(m)
	}
}

func canonEdge(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

func appendUnique(s []int, v int) []int {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

// Steps returns the number of adversary events executed.
func (r *Runner) Steps() int { return r.steps }

// Traversals returns the completed edge traversals of agent i.
func (r *Runner) Traversals(i int) int { return r.agents[i].traversals }

// TotalCost returns the summed completed traversals of all agents — the
// paper's cost measure.
func (r *Runner) TotalCost() int {
	t := 0
	for _, st := range r.agents {
		t += st.traversals
	}
	return t
}

// CostAccount is the per-run cost accounting in the paper's measure
// (completed edge traversals) beyond what Summary's Traversals/TotalCost
// already carry, surfaced so that bound oracles can check every run
// against the cost model without re-deriving anything from the event
// log.
type CostAccount struct {
	// MaxPerAgent is the largest single agent's traversal count — the
	// quantity Theorem 3.1's Π(n, ℓ) bounds for either agent.
	MaxPerAgent int
	// Committed additionally counts traversals in progress when the run
	// ended, which the model obliges agents to finish.
	Committed int
}

// Summary is the result of a run.
type Summary struct {
	Steps        int
	Traversals   []int
	TotalCost    int
	FirstMeeting *Meeting // nil if none
	// Account is the full per-run cost accounting (per-agent, committed,
	// wake steps) consumed by campaign bound oracles.
	Account CostAccount
	// Canceled reports that the run was aborted by its Config.Context.
	Canceled bool
	// Exhausted reports that the run consumed its full MaxSteps budget.
	Exhausted bool
}

func (r *Runner) summary() Summary {
	s := Summary{
		Steps:     r.steps,
		TotalCost: r.TotalCost(),
		Canceled:  r.canceled,
		Exhausted: !r.canceled && r.steps >= r.maxSteps,
	}
	inFlight := 0
	for _, st := range r.agents {
		s.Traversals = append(s.Traversals, st.traversals)
		if st.traversals > s.Account.MaxPerAgent {
			s.Account.MaxPerAgent = st.traversals
		}
		if st.pos.Kind == InEdge {
			inFlight++
		}
	}
	s.Account.Committed = s.TotalCost + inFlight
	if r.met {
		m := r.first
		s.FirstMeeting = &m
	}
	return s
}
