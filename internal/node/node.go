// Package node hosts a stack of protocol layers on one simulated process.
//
// The paper composes algorithms: a transformation (e.g. the two wheels)
// runs underneath an agreement protocol and feeds it an emulated failure
// detector. On a Node, lower layers intercept the raw message stream —
// consuming their own protocol messages, relaying reliable broadcasts —
// while the top-level protocol drives the event loop in blocking style
// (Step / WaitUntil). Every step also gives each layer a Poll call, which
// is where the layers' autonomous tasks ("repeat forever" in the paper's
// pseudo-code) make progress.
package node

import (
	"fdgrid/internal/sim"
)

// Layer is one protocol layer in the stack.
//
// Layers run entirely on the owning process's coroutine. Emulated
// failure detector outputs they expose are read by samplers and other
// processes under the same run token (see the internal/sim concurrency
// contract), so no internal locking is needed.
type Layer interface {
	// Handle inspects one message coming up the stack. It returns the
	// (possibly rewritten) message and true to pass it further up, or
	// false to consume it.
	Handle(m sim.Message) (sim.Message, bool)
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
}

// New assembles a stack over env; layers are ordered bottom-up.
func New(env *sim.Env, layers ...Layer) *Node {
	nd := &Node{env: env}
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

// Step advances the event loop once: it blocks for the next message or
// tick, lets every layer poll, and filters a received message up the
// stack. It returns (msg, true) if a message survived to the top, and
// (Message{}, false) on ticks or consumed messages.
func (nd *Node) Step() (sim.Message, bool) {
	return nd.step(nd.env.Now() + 1)
}

// StepUntil is Step with a wake condition for the top-level protocol: the
// node blocks until a message arrives or the clock reaches wake — or any
// layer's NextWake hint, whichever is earliest. A top level whose wait is
// purely message-driven passes sim.Never.
func (nd *Node) StepUntil(wake sim.Time) (sim.Message, bool) {
	return nd.step(wake)
}

func (nd *Node) step(wake sim.Time) (sim.Message, bool) {
	if nd.dense {
		// Some layer declares no wake hint: wake every tick (StepUntil
		// clamps a past wake to the next tick).
		wake = 0
	} else {
		now := nd.env.Now()
		for _, h := range nd.hinters {
			if w := h.NextWake(now); w < wake {
				wake = w
			}
		}
	}
	m, ok := nd.env.StepUntil(wake)
	if ok {
		for _, l := range nd.layers {
			m, ok = l.Handle(m)
			if !ok {
				break
			}
		}
	}
	for _, l := range nd.layers {
		l.Poll()
	}
	return m, ok
}

// WaitUntil runs the event loop until pred() holds, feeding surviving
// messages to onMsg (may be nil). pred is evaluated before the first step
// and after every step. The node wakes on every tick, so pred may depend
// on anything (time, oracle outputs, messages).
func (nd *Node) WaitUntil(pred func() bool, onMsg func(sim.Message)) {
	for !pred() {
		m, ok := nd.Step()
		if ok && onMsg != nil {
			onMsg(m)
		}
	}
}

// WaitOn is WaitUntil for message-driven predicates: pred may only
// change when a message is handled (by a layer or onMsg), so the node
// sleeps between messages instead of waking every tick. Layer wake
// hints still apply.
func (nd *Node) WaitOn(pred func() bool, onMsg func(sim.Message)) {
	for !pred() {
		m, ok := nd.StepUntil(sim.Never)
		if ok && onMsg != nil {
			onMsg(m)
		}
	}
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
	for {
		nd.StepUntil(sim.Never)
	}
}
