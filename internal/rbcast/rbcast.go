// Package rbcast implements the reliable broadcast abstraction the paper
// assumes (Hadzilacos & Toueg [10]): primitives R-broadcast and R-deliver
// with Validity (no spurious messages), Integrity (no duplicates) and
// Termination (if a correct process R-broadcasts or R-delivers m, every
// correct process R-delivers m).
//
// The construction is the classic echo relay: the origin sends a uniquely
// identified frame to everyone; on first receipt of a frame, a process
// relays it to everyone and only then R-delivers it. If the origin crashes
// mid-broadcast but the frame reaches one correct process, that process's
// relay completes the broadcast.
package rbcast

import (
	"fdgrid/internal/ids"
	"fdgrid/internal/sim"
)

// framePrefix marks wire messages carrying reliable-broadcast frames; the
// original protocol tag is appended so per-protocol message metrics stay
// observable (e.g. "rbcast:wheel.xmove").
const framePrefix = "rbcast:"

// msgID uniquely identifies an R-broadcast message.
type msgID struct {
	Origin ids.ProcID
	Seq    int
}

// frame is the wire payload of a relayed R-broadcast message. Frames are
// what identifies rbcast traffic on the wire: only this package creates
// them, so a message whose payload is a frame is an R-broadcast.
type frame struct {
	ID      msgID
	Tag     sim.Tag
	Payload any
}

// Layer adds reliable broadcast to one process's environment. It is not
// safe for concurrent use: like all protocol state, it lives on the
// owning process's coroutine.
type Layer struct {
	env     *sim.Env
	nextSeq int
	seen    map[msgID]bool
	wire    map[sim.Tag]sim.Tag // protocol tag → interned wire tag
}

// New returns a reliable-broadcast layer for env.
func New(env *sim.Env) *Layer {
	return &Layer{env: env, seen: make(map[msgID]bool), wire: make(map[sim.Tag]sim.Tag)}
}

// Broadcast R-broadcasts a protocol message (tag, payload) to all
// processes, the sender included.
func (l *Layer) Broadcast(tag sim.Tag, payload any) {
	l.nextSeq++
	f := frame{
		ID:      msgID{Origin: l.env.ID(), Seq: l.nextSeq},
		Tag:     tag,
		Payload: payload,
	}
	l.env.Broadcast(l.wireTag(tag), f)
}

// wireTag returns the wire tag for a protocol tag, interning on first
// use and caching per layer so repeated broadcasts cost one map hit.
func (l *Layer) wireTag(tag sim.Tag) sim.Tag {
	if w, ok := l.wire[tag]; ok {
		return w
	}
	w := WireTag(tag)
	l.wire[tag] = w
	return w
}

// WireTag returns the network-level tag under which R-broadcasts of the
// given protocol tag travel (for metrics queries).
func WireTag(tag sim.Tag) sim.Tag { return sim.Intern(framePrefix + tag.String()) }

// Poll implements node.Layer; the relay logic is purely message-driven.
func (l *Layer) Poll() {}

// NextWake implements node.Layer: the relay never needs a pure time
// wake.
func (l *Layer) NextWake(sim.Time) sim.Time { return sim.Never }

// Handle implements node.Layer. It filters one raw message from the
// event loop, in place.
//
// Plain (non-rbcast) messages pass through unchanged with deliver=true.
// For rbcast frames (identified by their frame payload): the first copy
// is relayed to everyone and rewritten into the R-delivered protocol
// message, with From set to the origin; duplicate copies return
// deliver=false and must be ignored.
func (l *Layer) Handle(m *sim.Message) bool {
	f, ok := m.Payload.(frame)
	if !ok {
		return true
	}
	if l.seen[f.ID] {
		return false
	}
	l.seen[f.ID] = true
	// Relay before delivering: if this process crashes mid-relay it has
	// not R-delivered, preserving Termination's contrapositive. Multicast
	// fans the frame out to everyone else in one stamped pass — same
	// ascending destination order as the old per-process Send loop.
	l.env.Multicast(l.env.All().Remove(l.env.ID()), m.Tag, m.Payload)
	m.From, m.Tag, m.Payload = f.ID.Origin, f.Tag, f.Payload
	return true
}
