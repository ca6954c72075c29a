package register

import (
	"fmt"

	"fdgrid/internal/ids"
	"fdgrid/internal/node"
	"fdgrid/internal/sim"
)

// Message tags of the ABD register emulation, interned once at package
// load.
var (
	tagABDWrite     = sim.Intern("abd.w")
	tagABDWriteAck  = sim.Intern("abd.wack")
	tagABDRead      = sim.Intern("abd.r")
	tagABDReadVal   = sim.Intern("abd.rval")
	tagABDWriteBack = sim.Intern("abd.wb")
	tagABDWBAck     = sim.Intern("abd.wback")
)

// The phases' messages travel as pointers, so no reply is boxed: a
// write or write-back carries the one ack every replica returns, and a
// read carries a table of replies, one slot per replica, which the
// replica fills once and sends a pointer to.

type abdWrite struct {
	Reg Reg
	TS  int64
	Val any
	Ack *abdAck
}

type abdAck struct {
	Op int64
}

type abdRead struct {
	Op      int64
	Owner   ids.ProcID
	Reg     Reg
	Replies []abdReadVal // index replica−1
}

type abdReadVal struct {
	Op  int64
	TS  int64
	Val any
}

type abdWriteBack struct {
	Owner ids.ProcID
	Reg   Reg
	TS    int64
	Val   any
	Ack   *abdAck
}

type tsVal struct {
	ts  int64
	val any
}

// ABD emulates single-writer multi-reader *atomic* registers over
// messages using majority quorums (Attiya, Bar-Noy, Dolev). Requires
// t < n/2. Write and Read block on quorum round-trips, pumping the
// process's event loop; the replica server side runs as a node.Layer, so
// a process keeps serving others even while blocked in its own
// operation.
//
// Usage: abd := NewABD(env); nd := node.New(env, abd, …); abd.Bind(nd).
type ABD struct {
	env *sim.Env
	nd  *node.Node

	replicas slots[tsVal]
	wts      int64
	nextOp   int64

	// The state of the process's one operation phase in progress (op 0:
	// none). A process runs one phase at a time, and replies carry their
	// phase's op, so replies to a finished phase, which keep arriving
	// from the replicas outside its quorum, are dropped. acked holds the
	// replicas that acked a write or write-back as an identity set (each
	// acks a phase at most once, so the quorum test is a word-level
	// popcount); a read phase counts its replies and keeps the freshest
	// (ts, val) among them, the first of equal timestamps winning.
	op      int64
	acked   ids.Set
	replies int
	best    tsVal

	// The wait predicates, built once so an operation allocates none.
	ackQuorum, replyQuorum func() bool
}

var (
	_ Store      = (*ABD)(nil)
	_ node.Layer = (*ABD)(nil)
)

// NewABD returns the ABD layer for one process. It panics unless t < n/2.
func NewABD(env *sim.Env) *ABD {
	if 2*env.T() >= env.N() {
		panic(fmt.Sprintf("register: ABD requires t < n/2, got n=%d t=%d", env.N(), env.T()))
	}
	a := &ABD{env: env}
	quorum := env.N()/2 + 1
	a.ackQuorum = func() bool { return a.acked.CountIn(a.env.N()) >= quorum }
	a.replyQuorum = func() bool { return a.replies >= quorum }
	return a
}

// Bind attaches the node whose event loop blocking operations pump. Must
// be called once, before the first Write or Read.
func (a *ABD) Bind(nd *node.Node) { a.nd = nd }

// begin opens the next operation phase, with no replies yet.
func (a *ABD) begin() int64 {
	a.nextOp++
	a.op, a.acked, a.replies, a.best = a.nextOp, ids.Set{}, 0, tsVal{}
	return a.op
}

// Write implements Store: it completes once a majority acknowledged.
func (a *ABD) Write(r Reg, v any) {
	a.wts++
	op := a.begin()
	a.env.Broadcast(tagABDWrite, &abdWrite{Reg: r, TS: a.wts, Val: v, Ack: &abdAck{Op: op}})
	a.nd.WaitOn(a.ackQuorum, nil)
	a.op = 0
}

// Read implements Store: a quorum read phase picks the freshest replica,
// then a write-back phase secures atomicity before returning.
func (a *ABD) Read(owner ids.ProcID, r Reg) any {
	op := a.begin()
	a.env.Broadcast(tagABDRead, &abdRead{Op: op, Owner: owner, Reg: r, Replies: make([]abdReadVal, a.env.N())})
	a.nd.WaitOn(a.replyQuorum, nil)
	best := a.best
	a.op = 0
	if best.ts == 0 {
		return nil // never written
	}

	wb := a.begin()
	a.env.Broadcast(tagABDWriteBack, &abdWriteBack{Owner: owner, Reg: r, TS: best.ts, Val: best.val, Ack: &abdAck{Op: wb}})
	a.nd.WaitOn(a.ackQuorum, nil)
	a.op = 0
	return best.val
}

// Handle implements node.Layer: the replica/server side, and the replies
// to this process's phase in progress.
func (a *ABD) Handle(m *sim.Message) bool {
	switch m.Tag {
	case tagABDWrite:
		w, ok := m.Payload.(*abdWrite)
		if !ok {
			panic(fmt.Sprintf("register: abd write payload %T", m.Payload))
		}
		a.apply(m.From, w.Reg, w.TS, w.Val)
		a.env.Send(m.From, tagABDWriteAck, w.Ack)
	case tagABDWriteAck:
		ack, ok := m.Payload.(*abdAck)
		if !ok {
			panic(fmt.Sprintf("register: abd ack payload %T", m.Payload))
		}
		a.ack(ack.Op, m.From)
	case tagABDRead:
		r, ok := m.Payload.(*abdRead)
		if !ok {
			panic(fmt.Sprintf("register: abd read payload %T", m.Payload))
		}
		rep := a.replicas.get(r.Owner, r.Reg)
		rv := &r.Replies[a.env.ID()-1]
		*rv = abdReadVal{Op: r.Op, TS: rep.ts, Val: rep.val}
		a.env.Send(m.From, tagABDReadVal, rv)
	case tagABDReadVal:
		rv, ok := m.Payload.(*abdReadVal)
		if !ok {
			panic(fmt.Sprintf("register: abd readval payload %T", m.Payload))
		}
		if rv.Op == a.op && a.op != 0 {
			a.replies++
			if rv.TS > a.best.ts {
				a.best = tsVal{ts: rv.TS, val: rv.Val}
			}
		}
	case tagABDWriteBack:
		wb, ok := m.Payload.(*abdWriteBack)
		if !ok {
			panic(fmt.Sprintf("register: abd writeback payload %T", m.Payload))
		}
		a.apply(wb.Owner, wb.Reg, wb.TS, wb.Val)
		a.env.Send(m.From, tagABDWBAck, wb.Ack)
	case tagABDWBAck:
		ack, ok := m.Payload.(*abdAck)
		if !ok {
			panic(fmt.Sprintf("register: abd wback payload %T", m.Payload))
		}
		a.ack(ack.Op, m.From)
	default:
		return true
	}
	return false
}

// ack counts from's ack of phase op if op is the phase in progress.
func (a *ABD) ack(op int64, from ids.ProcID) {
	if op == a.op && a.op != 0 {
		a.acked = a.acked.Add(from)
	}
}

func (a *ABD) apply(owner ids.ProcID, r Reg, ts int64, val any) {
	if rep := a.replicas.at(owner, r); rep.ts < ts {
		*rep = tsVal{ts: ts, val: val}
	}
}

// Poll implements node.Layer.
func (a *ABD) Poll() {}

// NextWake implements node.Layer: the substrate is purely
// message-driven.
func (a *ABD) NextWake(sim.Time) sim.Time { return sim.Never }
