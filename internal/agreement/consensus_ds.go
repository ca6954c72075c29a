package agreement

import (
	"fmt"

	"fdgrid/internal/fd"
	"fdgrid/internal/ids"
	"fdgrid/internal/node"
	"fdgrid/internal/rbcast"
	"fdgrid/internal/sim"
)

// Message tags of the ◇S-based consensus protocol, interned once at
// package load.
var (
	tagDSEst      = sim.Intern("dsc.est")
	tagDSEcho     = sim.Intern("dsc.echo")
	tagDSDecision = sim.Intern("dsc.decision")
)

type dsEstMsg struct {
	R   int
	Est Value
}

type dsEchoMsg struct {
	R   int
	Aux Value
	Bot bool
}

// ConsensusDS runs a rotating-coordinator ◇S-based consensus on one
// process — the quorum-based protocol of Mostefaoui & Raynal (paper
// ref. [18]) that the paper cites as the ancestor of its Fig. 3
// algorithm. It requires t < n/2 and a suspector of class ◇S (= ◇S_n,
// whose accuracy scope covers every process).
//
// Round r (coordinator c = ((r−1) mod n) + 1):
//
//	phase 1: c broadcasts EST(r, est_c); everyone waits for it or for
//	         c ∈ suspected_i, setting aux to est_c or ⊥;
//	phase 2: broadcast ECHO(r, aux); wait for n−t echoes. All non-⊥
//	         echoes of a round carry c's value v: if no ⊥ was received,
//	         R-broadcast DECISION(v); if some non-⊥ arrived, adopt v.
//
// Safety comes from quorum intersection (two sets of n−t senders share a
// process when t < n/2); termination from the round where c is the
// eventually-never-suspected correct process.
func ConsensusDS(nd *node.Node, rb *rbcast.Layer, susp fd.Suspector, v Value, out *Outcome) Value {
	env := nd.Env()
	n, t, me := env.N(), env.T(), env.ID()
	if 2*t >= n {
		panic(fmt.Sprintf("agreement: ConsensusDS requires t < n/2, got n=%d t=%d", n, t))
	}
	out.Propose(me, v)

	est := v
	r := 0
	coordEst := make(map[int]Value)
	echoes := make(map[int]map[ids.ProcID]dsEchoMsg)
	var decided *Value

	handle := func(m *sim.Message) {
		switch m.Tag {
		case tagDSEst:
			p, ok := m.Payload.(dsEstMsg)
			if !ok {
				panic(fmt.Sprintf("agreement: est payload %T", m.Payload))
			}
			coordOf := ids.ProcID((p.R-1)%n + 1)
			if m.From == coordOf {
				coordEst[p.R] = p.Est
			}
		case tagDSEcho:
			p, ok := m.Payload.(dsEchoMsg)
			if !ok {
				panic(fmt.Sprintf("agreement: echo payload %T", m.Payload))
			}
			if echoes[p.R] == nil {
				echoes[p.R] = make(map[ids.ProcID]dsEchoMsg, n)
			}
			echoes[p.R][m.From] = p
		case tagDSDecision:
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

	rec := env.Trace()
	for decided == nil {
		r++
		c := ids.ProcID((r-1)%n + 1)
		rec.Round(int64(env.Now()), int(me), r, ids.NewSet(c))

		// Phase 1: learn the coordinator's estimate or suspect it.
		if me == c {
			env.Broadcast(tagDSEst, dsEstMsg{R: r, Est: est})
		}
		nd.WaitUntil(func() bool {
			if decided != nil {
				return true
			}
			if _, ok := coordEst[r]; ok {
				return true
			}
			return susp.Suspected(me).Contains(c)
		}, handle)
		if decided != nil {
			break
		}
		aux, bot := Value(0), true
		if v, ok := coordEst[r]; ok {
			aux, bot = v, false
		}

		// Phase 2: exchange echoes.
		env.Broadcast(tagDSEcho, dsEchoMsg{R: r, Aux: aux, Bot: bot})
		nd.WaitUntil(func() bool {
			return decided != nil || len(echoes[r]) >= n-t
		}, handle)
		if decided != nil {
			break
		}
		sawBot, sawVal := false, false
		var val Value
		// Scan in identity order (not map order) so runs are replayable;
		// all non-⊥ echoes of a round carry the coordinator's estimate,
		// but a deterministic pick keeps that a non-assumption.
		for q := 1; q <= n; q++ {
			e, ok := echoes[r][ids.ProcID(q)]
			if !ok {
				continue
			}
			if e.Bot {
				sawBot = true
			} else {
				val, sawVal = e.Aux, true
			}
		}
		if sawVal {
			est = val
		}
		if sawVal && !sawBot {
			rb.Broadcast(tagDSDecision, decisionMsg{Val: est})
			nd.WaitUntil(func() bool { return decided != nil }, handle)
		}
	}

	rec.Decide(int64(env.Now()), int(me), r, int64(*decided))
	out.Decide(me, Decision{Value: *decided, Round: r, At: env.Now()})
	return *decided
}

// ConsensusDSMain returns a process main running ConsensusDS over a fresh
// rbcast layer.
func ConsensusDSMain(susp fd.Suspector, v Value, out *Outcome) func(*sim.Env) {
	return func(env *sim.Env) {
		rb := rbcast.New(env)
		nd := node.New(env, rb)
		ConsensusDS(nd, rb, susp, v, out)
		nd.RunForever()
	}
}

// Consensus runs the Ω-based (leader-based) consensus of paper ref. [20]:
// it is exactly the Fig. 3 algorithm instantiated with z = k = 1, as the
// paper notes. Provided as a named entry point for the baselines.
func Consensus(nd *node.Node, rb *rbcast.Layer, leader fd.Leader, v Value, out *Outcome) Value {
	return KSet(nd, rb, leader, v, out)
}
