package register

import (
	"fmt"

	"fdgrid/internal/ids"
	"fdgrid/internal/node"
	"fdgrid/internal/sim"
)

// tagHBUpdate carries heartbeat register updates.
var tagHBUpdate = sim.Intern("reg.hb")

type hbUpdate struct {
	Reg Reg
	Seq int64
	Val any
}

// Heartbeat is the message-passing translation of single-writer
// registers: Write broadcasts the new value with a sequence number;
// readers keep the freshest value received per (owner, register). Reads
// are local and may be stale, which Fig. 9 tolerates (its counters are
// monotone and its safety argument does not depend on read freshness).
// Works for any t.
//
// Heartbeat is a node.Layer: push it onto the process's stack so updates
// are absorbed.
type Heartbeat struct {
	env *sim.Env
	seq int64

	cache slots[hbEntry]
}

type hbEntry struct {
	seq int64
	val any
}

var (
	_ Store      = (*Heartbeat)(nil)
	_ node.Layer = (*Heartbeat)(nil)
)

// NewHeartbeat returns the heartbeat register layer for one process.
func NewHeartbeat(env *sim.Env) *Heartbeat {
	return &Heartbeat{env: env}
}

// Write implements Store: broadcast the update (own registers only by
// construction; the layer stores its own copy immediately so local
// read-own-write is never stale).
func (h *Heartbeat) Write(r Reg, v any) {
	h.seq++
	*h.cache.at(h.env.ID(), r) = hbEntry{seq: h.seq, val: v}
	h.env.Broadcast(tagHBUpdate, hbUpdate{Reg: r, Seq: h.seq, Val: v})
}

// Read implements Store.
func (h *Heartbeat) Read(owner ids.ProcID, r Reg) any {
	return h.cache.get(owner, r).val
}

// Handle implements node.Layer: absorb updates, newest per register wins.
func (h *Heartbeat) Handle(m *sim.Message) bool {
	if m.Tag != tagHBUpdate {
		return true
	}
	up, ok := m.Payload.(hbUpdate)
	if !ok {
		panic(fmt.Sprintf("register: heartbeat payload %T", m.Payload))
	}
	if e := h.cache.at(m.From, up.Reg); e.seq < up.Seq {
		*e = hbEntry{seq: up.Seq, val: up.Val}
	}
	return false
}

// Poll implements node.Layer.
func (h *Heartbeat) Poll() {}

// NextWake implements node.Layer: the substrate is purely
// message-driven.
func (h *Heartbeat) NextWake(sim.Time) sim.Time { return sim.Never }
