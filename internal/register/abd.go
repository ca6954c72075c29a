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

type abdWrite struct {
	Op   int64
	Name string
	TS   int64
	Val  any
}

type abdAck struct {
	Op int64
}

type abdRead struct {
	Op    int64
	Owner ids.ProcID
	Name  string
}

type abdReadVal struct {
	Op  int64
	TS  int64
	Val any
}

type abdWriteBack struct {
	Op    int64
	Owner ids.ProcID
	Name  string
	TS    int64
	Val   any
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

	replicas map[key]tsVal
	wts      int64
	nextOp   int64
	// acks collects the responders per operation as an identity set —
	// each replica acks an op at most once, so the quorum test is a
	// word-level popcount (Set.CountIn) instead of a tally.
	acks    map[int64]ids.Set
	replies map[int64][]tsVal
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
	return &ABD{
		env:      env,
		replicas: make(map[key]tsVal),
		acks:     make(map[int64]ids.Set),
		replies:  make(map[int64][]tsVal),
	}
}

// Bind attaches the node whose event loop blocking operations pump. Must
// be called once, before the first Write or Read.
func (a *ABD) Bind(nd *node.Node) { a.nd = nd }

func (a *ABD) quorum() int { return a.env.N()/2 + 1 }

// Write implements Store: it completes once a majority acknowledged.
func (a *ABD) Write(name string, v any) {
	a.wts++
	a.nextOp++
	op := a.nextOp
	a.env.Broadcast(tagABDWrite, abdWrite{Op: op, Name: name, TS: a.wts, Val: v})
	a.nd.WaitOn(func() bool { return a.acks[op].CountIn(a.env.N()) >= a.quorum() }, nil)
	delete(a.acks, op)
}

// Read implements Store: a quorum read phase picks the freshest replica,
// then a write-back phase secures atomicity before returning.
func (a *ABD) Read(owner ids.ProcID, name string) any {
	a.nextOp++
	op := a.nextOp
	a.env.Broadcast(tagABDRead, abdRead{Op: op, Owner: owner, Name: name})
	a.nd.WaitOn(func() bool { return len(a.replies[op]) >= a.quorum() }, nil)
	best := tsVal{}
	for _, r := range a.replies[op] {
		if r.ts > best.ts {
			best = r
		}
	}
	delete(a.replies, op)
	if best.ts == 0 {
		return nil // never written
	}

	a.nextOp++
	wb := a.nextOp
	a.env.Broadcast(tagABDWriteBack, abdWriteBack{Op: wb, Owner: owner, Name: name, TS: best.ts, Val: best.val})
	a.nd.WaitOn(func() bool { return a.acks[wb].CountIn(a.env.N()) >= a.quorum() }, nil)
	delete(a.acks, wb)
	return best.val
}

// Handle implements node.Layer: the replica/server side.
func (a *ABD) Handle(m *sim.Message) bool {
	switch m.Tag {
	case tagABDWrite:
		w, ok := m.Payload.(abdWrite)
		if !ok {
			panic(fmt.Sprintf("register: abd write payload %T", m.Payload))
		}
		a.apply(key{owner: m.From, name: w.Name}, w.TS, w.Val)
		a.env.Send(m.From, tagABDWriteAck, abdAck{Op: w.Op})
	case tagABDWriteAck:
		ack, ok := m.Payload.(abdAck)
		if !ok {
			panic(fmt.Sprintf("register: abd ack payload %T", m.Payload))
		}
		a.acks[ack.Op] = a.acks[ack.Op].Add(m.From)
	case tagABDRead:
		r, ok := m.Payload.(abdRead)
		if !ok {
			panic(fmt.Sprintf("register: abd read payload %T", m.Payload))
		}
		rep := a.replicas[key{owner: r.Owner, name: r.Name}]
		a.env.Send(m.From, tagABDReadVal, abdReadVal{Op: r.Op, TS: rep.ts, Val: rep.val})
	case tagABDReadVal:
		rv, ok := m.Payload.(abdReadVal)
		if !ok {
			panic(fmt.Sprintf("register: abd readval payload %T", m.Payload))
		}
		a.replies[rv.Op] = append(a.replies[rv.Op], tsVal{ts: rv.TS, val: rv.Val})
	case tagABDWriteBack:
		wb, ok := m.Payload.(abdWriteBack)
		if !ok {
			panic(fmt.Sprintf("register: abd writeback payload %T", m.Payload))
		}
		a.apply(key{owner: wb.Owner, name: wb.Name}, wb.TS, wb.Val)
		a.env.Send(m.From, tagABDWBAck, abdAck{Op: wb.Op})
	case tagABDWBAck:
		ack, ok := m.Payload.(abdAck)
		if !ok {
			panic(fmt.Sprintf("register: abd wback payload %T", m.Payload))
		}
		a.acks[ack.Op] = a.acks[ack.Op].Add(m.From)
	default:
		return true
	}
	return false
}

func (a *ABD) apply(k key, ts int64, val any) {
	if a.replicas[k].ts < ts {
		a.replicas[k] = tsVal{ts: ts, val: val}
	}
}

// Poll implements node.Layer.
func (a *ABD) Poll() {}

// NextWake implements node.WakeHinter: the substrate is purely
// message-driven.
func (a *ABD) NextWake(sim.Time) sim.Time { return sim.Never }
