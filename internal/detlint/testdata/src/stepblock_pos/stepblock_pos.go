// Package stepblock_pos blocks inside layer callbacks: a Handle that
// waits for a follow-up message, a Poll that steps its node and a
// NextWake that waits out its hint. During a node wait each of them
// runs on another process's stack.
package stepblock_pos

import (
	"fdgrid/internal/node"
	"fdgrid/internal/sim"
)

// Layer is a protocol layer that blocks where it must not.
type Layer struct {
	env *sim.Env
	nd  *node.Node
}

// Handle waits for the next message before passing this one up.
func (l *Layer) Handle(m *sim.Message) bool {
	l.env.Step()                                  // want stepblock
	l.nd.WaitOn(func() bool { return true }, nil) // want stepblock
	return true
}

// Poll advances the node itself, directly and from a closure.
func (l *Layer) Poll() {
	l.nd.StepUntil(sim.Never)           // want stepblock
	run := func() { l.nd.RunForever() } // want stepblock
	run()
}

// NextWake sleeps until its hint instead of returning it.
func (l *Layer) NextWake(now sim.Time) sim.Time {
	l.env.Await(func(sim.Time) sim.Time { return now + 1 }, func(*sim.Message) {}, nil) // want stepblock
	l.env.WaitUntil(func() bool { return true }, nil)                                   // want stepblock
	return now + 1
}
