package agreement

import (
	"fmt"
	"slices"

	"fdgrid/internal/fd"
	"fdgrid/internal/ids"
	"fdgrid/internal/node"
	"fdgrid/internal/rbcast"
	"fdgrid/internal/sim"
)

// Message tags of the Ω_z-based k-set agreement protocol, interned once
// at package load.
var (
	tagPhase1   = sim.Intern("kset.phase1")
	tagPhase2   = sim.Intern("kset.phase2")
	tagDecision = sim.Intern("kset.decision")
)

// ksetTags parameterizes the wire tags so independent instances can
// coexist (see RunSequence).
type ksetTags struct {
	phase1, phase2, decision sim.Tag
}

var defaultKSetTags = ksetTags{phase1: tagPhase1, phase2: tagPhase2, decision: tagDecision}

type phase1Msg struct {
	R   int
	L   ids.Set // the sender's leader set at the start of round R
	Est Value
}

type phase2Msg struct {
	R   int
	Aux Value
	Bot bool // true means aux = ⊥
}

type decisionMsg struct {
	Val Value
}

// KSet runs the paper's Ω_z-based k-set agreement algorithm (Fig. 3) on
// one process, proposing v. It requires t < n/2; decisions are recorded
// in out. The function returns after deciding (or unwinds on crash).
//
// Structure, following the paper's task T1 (round loop with two phases)
// and T2 (decision dissemination via reliable broadcast):
//
//	r++; L_i ← trusted_i; broadcast PHASE1(r, L_i, est_i)
//	wait ≥ n−t PHASE1(r); wait PHASE1(r) from some p ∈ L_i or L_i ≠ trusted_i
//	aux_i ← v_L if one set L was announced by a majority and a PHASE1(r)
//	        estimate arrived from a member of L, else ⊥
//	broadcast PHASE2(r, aux_i); wait ≥ n−t PHASE2(r)
//	adopt any non-⊥ value; if no ⊥ received, R-broadcast DECISION(est_i)
//	decide upon R-delivering a DECISION (task T2) — which also prevents
//	blocking: as soon as any process decides, all correct processes do.
func KSet(nd *node.Node, rb *rbcast.Layer, oracle fd.Leader, v Value, out *Outcome) Value {
	return ksetRun(nd, rb, oracle, v, out, defaultKSetTags, nil, nil)
}

// ksetRun is the Fig. 3 body with injectable wire tags, a replay queue of
// messages that arrived before this instance started, and a stash hook
// that may consume messages belonging to other instances.
func ksetRun(nd *node.Node, rb *rbcast.Layer, oracle fd.Leader, v Value, out *Outcome,
	tags ksetTags, replay []sim.Message, stash func(*sim.Message) bool) Value {
	env := nd.Env()
	n, t, me := env.N(), env.T(), env.ID()
	if 2*t >= n {
		panic(fmt.Sprintf("agreement: KSet requires t < n/2, got n=%d t=%d", n, t))
	}
	out.Propose(me, v)

	est := v
	r := 0
	if out.arena == nil {
		out.arena = new(RoundArena) // shared by the run's processes
	}
	rs := newRounds(n, out.arena)
	defer rs.release()
	var decided *Value

	handle := func(m *sim.Message) {
		if stash != nil && stash(m) {
			return
		}
		switch m.Tag {
		case tags.phase1:
			p, ok := m.Payload.(phase1Msg)
			if !ok {
				panic(fmt.Sprintf("agreement: phase1 payload %T", m.Payload))
			}
			if b := rs.at(p.R); b != nil {
				b.p1.put(m.From, &p)
			}
		case tags.phase2:
			p, ok := m.Payload.(phase2Msg)
			if !ok {
				panic(fmt.Sprintf("agreement: phase2 payload %T", m.Payload))
			}
			if b := rs.at(p.R); b != nil {
				b.p2.put(m.From, me, &p)
			}
		case tags.decision:
			p, ok := m.Payload.(decisionMsg)
			if !ok {
				panic(fmt.Sprintf("agreement: decision payload %T", m.Payload))
			}
			if decided == nil {
				val := p.Val
				decided = &val
			}
		}
	}

	for i := range replay {
		handle(&replay[i])
	}

	rec := env.Trace()
	for decided == nil {
		r++
		// Rounds below r are never read again: retire their boxes.
		cur := rs.advance(r)
		p1, p2 := &cur.p1, &cur.p2
		// Phase 1.
		l := oracle.Trusted(me)
		rec.Round(int64(env.Now()), int(me), r, l)
		env.Broadcast(tags.phase1, phase1Msg{R: r, L: l, Est: est})
		nd.WaitOn(func() bool {
			return decided != nil || p1.count >= n-t
		}, handle)
		if decided != nil {
			break
		}
		nd.WaitUntil(func() bool {
			if decided != nil || p1.from.Intersects(l) {
				return true
			}
			return !oracle.Trusted(me).Equal(l)
		}, handle)
		if decided != nil {
			break
		}
		aux, bot := phase1Aux(p1, n)

		// Phase 2.
		env.Broadcast(tags.phase2, phase2Msg{R: r, Aux: aux, Bot: bot})
		nd.WaitOn(func() bool {
			return decided != nil || p2.count >= n-t
		}, handle)
		if decided != nil {
			break
		}
		if p2.pick == ids.None {
			continue // every aux was ⊥
		}
		est = p2.aux
		if !p2.sawBot {
			rb.Broadcast(tags.decision, decisionMsg{Val: est})
			nd.WaitOn(func() bool { return decided != nil }, handle)
		}
	}

	rec.Decide(int64(env.Now()), int(me), r, int64(*decided))
	out.Decide(me, Decision{Value: *decided, Round: r, At: env.Now()})
	return *decided
}

// senders is who was heard in one round's phase, and how many: the
// protocol's waits read count ("n−t messages") and from ("a PHASE1 from
// some member of L").
type senders struct {
	from  ids.Set
	count int
}

// add records p as heard in phase ph of round r. Each process sends each
// phase once per round and the network never duplicates a message, so a
// second message from p is a bug: it panics.
func (s *senders) add(p ids.ProcID, ph, r int) {
	if !s.from.Insert(p) {
		panic(fmt.Sprintf("agreement: %v sent two PHASE%d messages in round %d", p, ph, r))
	}
	s.count++
}

// phase1Slot is a sender's PHASE1 message less its round, the box's.
type phase1Slot struct {
	L   ids.Set
	Est Value
}

// phase1Box is one round's PHASE1 state: slots[p] holds p's message
// when from contains p.
type phase1Box struct {
	senders
	slots []phase1Slot // index 1..n
}

func (b *phase1Box) put(from ids.ProcID, m *phase1Msg) {
	b.add(from, 1, m.R)
	b.slots[from] = phase1Slot{L: m.L, Est: m.Est}
}

// phase2Box is one round's PHASE2 state. Phase 2 asks only "was any ⊥
// received?" and "which non-⊥ value is adopted?", so the box keeps the
// answers, not the messages. The paper adopts any non-⊥ value ("takes
// one arbitrarily"); this implementation adopts its own echo when
// present, else the smallest-id sender's value — a legal choice that
// maximizes decision diversity (making the z ≤ k tightness observable)
// and does not depend on arrival order, so runs stay replayable.
type phase2Box struct {
	senders
	sawBot bool       // some sender's aux was ⊥
	pick   ids.ProcID // whose aux is adopted; None while every aux was ⊥
	aux    Value      // pick's aux
}

// put folds from's PHASE2 message into process me's box.
func (b *phase2Box) put(from, me ids.ProcID, m *phase2Msg) {
	b.add(from, 2, m.R)
	switch {
	case m.Bot:
		b.sawBot = true
	case b.pick == ids.None || b.pick != me && (from == me || from < b.pick):
		b.pick, b.aux = from, m.Aux
	}
}

// round is one round's state at one process.
type round struct {
	p1 phase1Box
	p2 phase2Box
}

// rounds is one process's round state: a box per round from the current
// one up, kept dense by round. Messages for rounds already passed are
// dropped on arrival — the protocol never reads them. Boxes come from a
// RoundArena and go back to it as rounds retire, so a run reuses the
// same few slot arrays however many rounds it takes.
type rounds struct {
	n     int
	base  int      // the current round: boxes[i] holds round base+i
	boxes []*round // nil where nothing has arrived yet
	arena *RoundArena
}

// newRounds starts a process's round state on arena.
func newRounds(n int, arena *RoundArena) *rounds {
	return &rounds{n: n, base: 1, arena: arena}
}

// at returns round r's box, or nil if r has passed.
func (rs *rounds) at(r int) *round {
	i := r - rs.base
	if i < 0 {
		return nil
	}
	for len(rs.boxes) <= i {
		rs.boxes = append(rs.boxes, nil)
	}
	if rs.boxes[i] == nil {
		rs.boxes[i] = rs.arena.take(rs.n)
	}
	return rs.boxes[i]
}

// advance makes r the current round, handing every earlier round's box
// back, and returns round r's box.
func (rs *rounds) advance(r int) *round {
	k := min(r-rs.base, len(rs.boxes))
	rs.arena.put(rs.boxes[:k])
	rs.boxes = rs.boxes[:copy(rs.boxes, rs.boxes[k:])]
	rs.base = r
	return rs.at(r)
}

// release hands every box back. ksetRun defers it, so a process that
// decides, crashes or is stopped at teardown returns its boxes alike.
func (rs *rounds) release() {
	rs.arena.put(rs.boxes)
	rs.boxes = nil
}

// RoundArena is a free list of k-set round boxes, each with a phase-1
// slot array. A caller running k-set runs one after another lends each
// the same arena (Outcome.UseArena), and the processes of a run share
// it under the run token, so the slot arrays are grown once, not once
// per run. Boxes come back with their senders and phase-2 state
// cleared; the slots hold no references and are written before they
// are read. The zero value is ready to use. An arena is not safe for
// concurrent use: lend it to one run at a time.
type RoundArena struct {
	free []*round
}

// take returns an empty box with slots for ids 1..n.
func (a *RoundArena) take(n int) *round {
	var b *round
	if k := len(a.free); k > 0 {
		b, a.free = a.free[k-1], a.free[:k-1]
	} else {
		b = new(round)
	}
	b.p1.slots = slices.Grow(b.p1.slots[:0], n+1)[:n+1]
	return b
}

// put empties the non-nil boxes of bs onto the free list.
func (a *RoundArena) put(bs []*round) {
	for _, b := range bs {
		if b != nil {
			*b = round{p1: phase1Box{slots: b.p1.slots}}
			a.free = append(a.free, b)
		}
	}
}

// phase1Aux computes aux_i at the end of phase 1: if one leader set L was
// announced by a strict majority of the n processes, and some heard
// sender belongs to L, aux is that sender's estimate (the estimate of the
// smallest-id such leader, deterministically); otherwise aux = ⊥.
//
// At most one set can be announced by a strict majority, so a
// majority-vote pass over the senders in id order finds the only
// candidate, and a counting pass confirms it. The result does not
// depend on the scan order.
func phase1Aux(b *phase1Box, n int) (aux Value, bot bool) {
	var cand ids.Set
	lead := 0
	b.from.ForEachIn(n, func(p ids.ProcID) bool {
		switch l := b.slots[p].L; {
		case lead == 0:
			cand, lead = l, 1
		case l.Equal(cand):
			lead++
		default:
			lead--
		}
		return true
	})
	votes := 0
	b.from.ForEachIn(n, func(p ids.ProcID) bool {
		if b.slots[p].L.Equal(cand) {
			votes++
		}
		return true
	})
	if 2*votes <= n {
		return 0, true
	}
	best := b.from.Intersect(cand).Min()
	if best == ids.None {
		return 0, true
	}
	return b.slots[best].Est, false
}

// KSetMain returns a process main running KSet over a fresh rbcast layer,
// for runs without a transformation stack underneath.
func KSetMain(oracle fd.Leader, v Value, out *Outcome) func(*sim.Env) {
	return func(env *sim.Env) {
		rb := rbcast.New(env)
		nd := node.New(env, rb)
		KSet(nd, rb, oracle, v, out)
		// Keep serving the event loop so reliable broadcast frames keep
		// being relayed to slower processes.
		nd.RunForever()
	}
}
