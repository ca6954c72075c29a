// Package node hosts a stack of protocol layers on one simulated process.
//
// The paper composes algorithms: a transformation (e.g. the two wheels)
// runs underneath an agreement protocol and feeds it an emulated failure
// detector. On a Node, lower layers intercept the raw message stream —
// consuming their own protocol messages, relaying reliable broadcasts —
// while the top-level protocol drives the event loop in blocking style
// (WaitOn / WaitUntil / WaitTill / RunForever). Every step also gives
// each layer a Poll call, which is where the layers' autonomous tasks
// ("repeat forever" in the paper's pseudo-code) make progress.
//
// The waits are the node's only blocking API, and each is one
// sim.Env.Await: while a node waits, its steps run on whichever stack
// holds the run token when it is due, not necessarily its own
// process's.
package node

import (
	"fdgrid/internal/sim"
)

// Layer is one protocol layer in the stack.
//
// Layers run under the run token, but not always on the owning
// process's coroutine: every node step is a step of a wait (WaitOn,
// WaitUntil, WaitTill, RunForever), so Handle, Poll and NextWake run on
// the stack of whoever holds the token when the node is due — Run's
// loop or another process parking (see the internal/sim concurrency
// contract). They must therefore not block: a wait, or a raw sim.Env
// Step or StepUntil, called from inside them panics. Emulated failure
// detector outputs they expose are read by samplers and other processes
// under the same run token, so no internal locking is needed.
type Layer interface {
	// Handle inspects one message coming up the stack, in place: it may
	// rewrite *m, and returns true to pass it further up or false to
	// consume it. m is valid only during the call; a layer that keeps
	// the message copies *m.
	Handle(m *sim.Message) bool
	// Poll runs the layer's autonomous tasks. It is called at least once
	// per event-loop step (message or tick).
	Poll()
}

// WakeHinter is an optional Layer extension declaring when the layer's
// Poll next needs to run without a message having arrived: NextWake
// returns the earliest future tick at which the layer's autonomous tasks
// may have something to do (sim.Never for purely message-driven layers).
// The node sleeps until the earliest layer hint — a layer that does not
// implement WakeHinter keeps the node waking every tick, which is always
// correct but prevents the scheduler from skipping idle virtual time.
type WakeHinter interface {
	NextWake(now sim.Time) sim.Time
}

// Node is one process's protocol stack.
type Node struct {
	env    *sim.Env
	layers []Layer // bottom (closest to the network) first

	// hinters caches the layers' WakeHinter views; dense is set when any
	// layer lacks one, pinning the node to every-tick wakes. Cached at
	// assembly so the per-step path does no interface assertions.
	hinters []WakeHinter
	dense   bool

	// The wait in progress (see await): the callbacks handed to
	// sim.Env.Await, built once here so a wait allocates nothing, and the
	// parameters they read — the top level's wake time (0: every tick,
	// sim.Never: none), the caller's message handler, and whether
	// WaitTill's first step is under way.
	nextFn  func(sim.Time) sim.Time
	onFn    func(*sim.Message)
	tillFn  func() bool
	until   sim.Time
	onMsg   func(*sim.Message)
	stepped bool
}

// New assembles a stack over env; layers are ordered bottom-up.
func New(env *sim.Env, layers ...Layer) *Node {
	nd := &Node{env: env}
	nd.nextFn = nd.waitWake
	nd.onFn = nd.waitStep
	nd.tillFn = nd.tillDone
	for _, l := range layers {
		nd.Push(l)
	}
	return nd
}

// Env returns the process environment.
func (nd *Node) Env() *sim.Env { return nd.env }

// Push appends a layer on top of the stack.
func (nd *Node) Push(l Layer) {
	nd.layers = append(nd.layers, l)
	if h, ok := l.(WakeHinter); ok {
		nd.hinters = append(nd.hinters, h)
	} else {
		nd.dense = true
	}
}

// hinted lowers wake to the earliest layer hint, or to 0 (every tick;
// Await clamps a past wake to the next tick) when some layer declares
// no hint.
func (nd *Node) hinted(now, wake sim.Time) sim.Time {
	if nd.dense {
		return 0
	}
	for _, h := range nd.hinters {
		if w := h.NextWake(now); w < wake {
			wake = w
		}
	}
	return wake
}

// filter passes a received message (nil on a clock step) up the stack
// in place and lets every layer poll: the second half of a step. It
// reports whether a message survived to the top.
func (nd *Node) filter(m *sim.Message) bool {
	ok := m != nil
	if ok {
		for _, l := range nd.layers {
			if ok = l.Handle(m); !ok {
				break
			}
		}
	}
	for _, l := range nd.layers {
		l.Poll()
	}
	return ok
}

// waitWake and waitStep are the wait's sim.Env.Await callbacks: one
// step of the event loop, waking at the top level's wake time or the
// earliest layer hint, then filtering what arrived up the stack.
func (nd *Node) waitWake(now sim.Time) sim.Time {
	return nd.hinted(now, nd.until)
}

func (nd *Node) waitStep(m *sim.Message) {
	if nd.filter(m) && nd.onMsg != nil {
		nd.onMsg(m)
	}
}

// await runs the event loop until pred holds (forever when pred is
// nil), feeding surviving messages to onMsg (may be nil; each is valid
// only during the call, as in Layer.Handle): every step wakes on a
// message, at until or at a layer hint, whichever comes first. It is
// the one loop behind WaitUntil, WaitOn, WaitTill and RunForever.
func (nd *Node) await(until sim.Time, pred func() bool, onMsg func(*sim.Message)) {
	nd.until, nd.onMsg = until, onMsg
	nd.env.Await(nd.nextFn, nd.onFn, pred)
	nd.onMsg = nil
}

// WaitUntil runs the event loop until pred() holds, feeding surviving
// messages to onMsg (may be nil). pred is evaluated before the first step
// and after every step. The node wakes on every tick, so pred may depend
// on anything (time, oracle outputs, messages).
func (nd *Node) WaitUntil(pred func() bool, onMsg func(*sim.Message)) {
	nd.await(0, pred, onMsg)
}

// WaitOn is WaitUntil for message-driven predicates: pred may only
// change when a message is handled (by a layer or onMsg), so the node
// sleeps between messages instead of waking every tick. Layer wake
// hints still apply.
func (nd *Node) WaitOn(pred func() bool, onMsg func(*sim.Message)) {
	nd.await(sim.Never, pred, onMsg)
}

// WaitTill runs the event loop until the clock reaches until, dropping
// the messages that survive to the top: the pacing wait of a top level
// that acts again at a given tick ("repeat forever" every so often). It
// takes at least one step, even when until has already passed, so a
// pacing loop always yields; the node wakes on a message, at until or
// at a layer hint.
func (nd *Node) WaitTill(until sim.Time) {
	nd.stepped = false
	nd.await(until, nd.tillFn, nil)
}

// tillDone is WaitTill's done callback. Await evaluates done before
// every step, so the first call, which precedes the first step, reports
// false: the loop is a do-while.
func (nd *Node) tillDone() bool {
	if !nd.stepped {
		nd.stepped = true
		return false
	}
	return nd.env.Now() >= nd.until
}

// RunForever drives the event loop until the process is crashed or the
// run stops (the Env unwinds the process). Used by transformation-only
// processes that have no top-level protocol.
func (nd *Node) RunForever() {
	// Initial poll round: layer autonomous tasks take their first step
	// before the node first parks (with wake hints the first pure time
	// wake may otherwise never come).
	for _, l := range nd.layers {
		l.Poll()
	}
	nd.await(sim.Never, nil, nil)
}
