package reduction

import (
	"fdgrid/internal/fd"
	"fdgrid/internal/ids"
	"fdgrid/internal/node"
	"fdgrid/internal/register"
	"fdgrid/internal/sim"
)

// The registers of the Fig. 9 algorithm.
const (
	regAlive register.Reg = iota
	regSuspect
)

// SEmulation aggregates the per-process SUSPECTED_i sets produced by the
// Fig. 9 addition into a failure detector of class S (x+y > t, perpetual
// inputs) or ◇S (eventual inputs), readable through fd.Suspector. Its
// change marks record each output set that differs from the last.
type SEmulation struct {
	sets  procTable[ids.Set]
	marks fd.Marks
}

var (
	_ fd.Suspector    = (*SEmulation)(nil)
	_ fd.ChangeMarked = (*SEmulation)(nil)
)

// NewSEmulation returns an empty aggregator.
func NewSEmulation() *SEmulation {
	return &SEmulation{}
}

func (e *SEmulation) set(p ids.ProcID, s ids.Set) {
	if !e.sets.get(p).Equal(s) {
		e.sets.set(p, s)
		e.marks.Mark(p)
	}
}

// ChangeMarks implements fd.ChangeMarked.
func (e *SEmulation) ChangeMarks() *fd.Marks { return &e.marks }

// Suspected implements fd.Suspector. A process that has not yet computed
// an output suspects nobody.
func (e *SEmulation) Suspected(p ids.ProcID) ids.Set {
	return e.sets.get(p)
}

// NextChange implements fd.ChangeHinted: the emulation changes only when
// a host process takes a step, never from time passing alone.
func (e *SEmulation) NextChange(sim.Time) sim.Time { return sim.Never }

// RunAddS runs the paper's Appendix B algorithm (Fig. 9) forever on one
// process: the addition S_x + φ_y → S_n (◇S_x + ◇φ_y → ◇S_n), legal
// when x+y > t.
//
// Task T1 publishes a heartbeat counter alive[i] and the local suspected
// set suspect[i] through single-writer registers. Task T2 repeatedly
// scans alive[1..n] to split Π into live (progress observed) and X (no
// progress), retrying until query(X) confirms the split — φ_y's
// triviality accepts |X| ≤ t−y outright, its safety vouches that an
// informative X has entirely crashed. The output is
// SUSPECTED_i = (∩_{j∈live} suspect[j]) ∖ live.
//
// The two forever-tasks are interleaved one iteration each per event-loop
// step — one of the schedules the asynchronous model admits. Iterations
// are paced (gap ticks) so message-backed register substrates keep up.
func RunAddS(nd *node.Node, store register.Store, susp fd.Suspector, quer fd.Querier, emu *SEmulation, gap sim.Time) {
	env := nd.Env()
	n, me := env.N(), env.ID()
	var aliveC int64
	prev := make([]int64, n+1)
	cur := make([]int64, n+1)
	// The suspicions last published, boxed once per distinct set: a
	// write of an unchanged set reuses the box instead of allocating.
	var suspected ids.Set
	var suspectedBox any

	for {
		last := env.Now()

		// T1: heartbeat and publish suspicions.
		aliveC++
		store.Write(regAlive, aliveC)
		if s := susp.Suspected(me); suspectedBox == nil || !s.Equal(suspected) {
			suspected, suspectedBox = s, s
		}
		store.Write(regSuspect, suspectedBox)

		// T2, one inner iteration: scan and split.
		var live ids.Set
		for j := 1; j <= n; j++ {
			cur[j] = 0
			if v, ok := store.Read(ids.ProcID(j), regAlive).(int64); ok {
				cur[j] = v
			}
			if cur[j] > prev[j] {
				live = live.Add(ids.ProcID(j))
			}
		}
		x := env.All().Minus(live)
		if quer.Query(me, x) {
			copy(prev, cur)
			inter := env.All()
			live.ForEach(func(j ids.ProcID) bool {
				if s, ok := store.Read(j, regSuspect).(ids.Set); ok {
					inter = inter.Intersect(s)
				} else {
					inter = ids.EmptySet() // j has not published yet
				}
				return true
			})
			emu.set(me, inter.Minus(live))
		}

		// Nothing to do before last+gap; register traffic still runs
		// through the stack meanwhile.
		nd.WaitTill(last + gap)
	}
}

// SpawnAddS wires the Fig. 9 addition on every process of sys over the
// chosen register substrate and returns the emulated S/◇S output.
// substrate selects the register implementation:
//
//	"memory"    — shared-memory model (the paper's own setting),
//	"heartbeat" — message-passing translation, any t,
//	"abd"       — ABD atomic registers, t < n/2.
func SpawnAddS(sys *sim.System, susp fd.Suspector, quer fd.Querier, substrate string) *SEmulation {
	emu := NewSEmulation()
	gap := sim.Time(4 * sys.Config().N)
	var mem *register.Memory
	if substrate == "memory" {
		mem = register.NewMemory()
	}
	sys.SpawnAll(func(env *sim.Env) {
		var store register.Store
		var layers []node.Layer
		switch substrate {
		case "memory":
			store = mem.View(env.ID())
		case "heartbeat":
			hb := register.NewHeartbeat(env)
			store = hb
			layers = append(layers, hb)
		case "abd":
			abd := register.NewABD(env)
			store = abd
			layers = append(layers, abd)
		default:
			panic("reduction: unknown register substrate " + substrate)
		}
		nd := node.New(env, layers...)
		if abd, ok := store.(*register.ABD); ok {
			abd.Bind(nd)
		}
		RunAddS(nd, store, susp, quer, emu, gap)
	})
	return emu
}
