// Package stepblock_neg waits only from process mains and helper
// methods; its layer callbacks send, count and hint without blocking.
package stepblock_neg

import (
	"fdgrid/internal/node"
	"fdgrid/internal/sim"
)

var tagPing = sim.Intern("stepblock.ping")

// Layer counts messages and pings on every poll.
type Layer struct {
	env  *sim.Env
	seen int
}

// Handle counts and passes the message up.
func (l *Layer) Handle(m *sim.Message) bool {
	l.seen++
	return true
}

// Poll sends without blocking.
func (l *Layer) Poll() {
	l.env.Broadcast(tagPing, l.seen)
}

// NextWake returns its hint.
func (l *Layer) NextWake(now sim.Time) sim.Time { return now + 10 }

// Main is a process main: waiting here is what waits are for.
func Main(env *sim.Env) {
	l := &Layer{env: env}
	nd := node.New(env, l)
	nd.WaitOn(func() bool { return l.seen >= 3 }, nil)
	nd.RunForever()
}

// Poll is a plain function, not a layer callback, so it may block.
func Poll(nd *node.Node) { nd.Step() }
