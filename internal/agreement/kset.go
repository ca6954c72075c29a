package agreement

import (
	"fmt"

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
	phase1 := newRounds[phase1Msg](n)
	phase2 := newRounds[phase2Msg](n)
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
			phase1.put(p.R, m.From, p)
		case tags.phase2:
			p, ok := m.Payload.(phase2Msg)
			if !ok {
				panic(fmt.Sprintf("agreement: phase2 payload %T", m.Payload))
			}
			phase2.put(p.R, m.From, p)
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
		p1, p2 := phase1.advance(r), phase2.advance(r)
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
		sawBot := false
		adopted := false
		// The paper adopts any received non-⊥ value ("takes one
		// arbitrarily"); this implementation prefers its own echo when
		// present, else the smallest-id sender's value — a legal choice
		// that maximizes decision diversity (making the z ≤ k tightness
		// observable) while keeping runs replayable: senders are scanned
		// in identity order.
		p2.from.ForEachIn(n, func(from ids.ProcID) bool {
			pm := p2.msgs[from]
			if pm.Bot {
				sawBot = true
				return true
			}
			if from == me || !adopted {
				est = pm.Aux
				adopted = true
			}
			return true
		})
		if !adopted {
			continue
		}
		if !sawBot {
			rb.Broadcast(tags.decision, decisionMsg{Val: est})
			nd.WaitOn(func() bool { return decided != nil }, handle)
		}
	}

	rec.Decide(int64(env.Now()), int(me), r, int64(*decided))
	out.Decide(me, Decision{Value: *decided, Round: r, At: env.Now()})
	return *decided
}

// roundBox holds one phase's messages of one round, indexed by sender:
// msgs[p] is p's message when from contains p. A sender heard twice
// counts once; its later message replaces the earlier one.
type roundBox[M any] struct {
	from  ids.Set
	count int
	msgs  []M // index 1..n
}

// rounds is one phase's round state for one process: a box per round
// from the current one up, kept dense by round. Messages for rounds
// already passed are dropped on arrival — the protocol never reads
// them — and the boxes of retired rounds are recycled, so a run reuses
// the same few sender-indexed arrays however many rounds it takes.
type rounds[M any] struct {
	n     int
	base  int            // the current round: boxes[i] holds round base+i
	boxes []*roundBox[M] // nil where nothing has arrived yet
	free  []*roundBox[M] // retired boxes, emptied, ready for reuse
}

func newRounds[M any](n int) *rounds[M] {
	return &rounds[M]{n: n, base: 1}
}

// box returns round r's box, creating it (from a recycled one when
// possible) if needed; r must be at least the current round.
func (rs *rounds[M]) box(r int) *roundBox[M] {
	i := r - rs.base
	for len(rs.boxes) <= i {
		rs.boxes = append(rs.boxes, nil)
	}
	if rs.boxes[i] == nil {
		if k := len(rs.free); k > 0 {
			rs.boxes[i] = rs.free[k-1]
			rs.free = rs.free[:k-1]
		} else {
			rs.boxes[i] = &roundBox[M]{msgs: make([]M, rs.n+1)}
		}
	}
	return rs.boxes[i]
}

// put records from's message for round r, dropping it if r has passed.
func (rs *rounds[M]) put(r int, from ids.ProcID, m M) {
	if r < rs.base {
		return
	}
	b := rs.box(r)
	if !b.from.Contains(from) {
		b.from = b.from.Add(from)
		b.count++
	}
	b.msgs[from] = m
}

// advance makes r the current round, retiring every earlier round's
// box, and returns round r's box.
func (rs *rounds[M]) advance(r int) *roundBox[M] {
	k := min(r-rs.base, len(rs.boxes))
	for _, b := range rs.boxes[:k] {
		if b != nil {
			b.from, b.count = ids.Set{}, 0
			rs.free = append(rs.free, b)
		}
	}
	rs.boxes = rs.boxes[:copy(rs.boxes, rs.boxes[k:])]
	rs.base = r
	return rs.box(r)
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
func phase1Aux(b *roundBox[phase1Msg], n int) (aux Value, bot bool) {
	var cand ids.Set
	lead := 0
	b.from.ForEachIn(n, func(p ids.ProcID) bool {
		switch l := b.msgs[p].L; {
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
		if b.msgs[p].L.Equal(cand) {
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
	return b.msgs[best].Est, false
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
