package sim

import (
	"fmt"

	"fdgrid/internal/ids"
	"fdgrid/internal/trace"
)

// Message is a point-to-point message. Payloads must be immutable values:
// they are shared between sender and receiver without copying.
type Message struct {
	From, To    ids.ProcID
	Tag         Tag
	Payload     any
	SentAt      Time
	DeliveredAt Time
}

// procKilled is the sentinel used to unwind a crashed or stopped process
// coroutine. It never escapes the package: the coroutine recovers it.
type procKilled struct{}

// Proc is the runtime state of one simulated process.
//
// Ownership: execution is strictly sequential — at any instant exactly
// one coroutine holds the run token (Run's loop, or one process main).
// Every field below is accessed only by the token holder: the process
// while it runs; Run's loop, the tick phases or the process's own Await
// steps, on whichever stack holds the token, while it is parked or
// done. The coroutine switches order all of it, so none of these fields
// need locks or atomics (the race detector checks this claim on every
// -race run).
type Proc struct {
	id   ids.ProcID
	sys  *System
	main func(*Env)

	// The process main's coroutine (iter.Pull): next resumes it until its
	// next park or its return, yield is how a parked StepUntil hands the
	// token back to next's caller, and stop unwinds a parked process —
	// its yield returns false. All nil until launch.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()

	inbox    []Message // appended by the scheduler (delivery), drained by the process
	nextRead int
	dead     bool // set by the scheduler; the process unwinds at its next Env call

	// The wait in progress (Env.Await), inline so a wait allocates
	// nothing: its three callbacks, valid from Await's entry to its
	// return. awaiting is set while the coroutine is suspended inside
	// Await: the token holder then runs the process's steps itself
	// (System.awaitSteps) and resumes the coroutine only once waitDone
	// holds. The wait's clamped wake time lives in the scheduler's
	// deadlines slot.
	waitNext func(now Time) Time
	waitOn   func(*Message)
	waitDone func() bool
	awaiting bool
}

// Env is the interface protocol code uses to interact with the system.
// All methods must be called from the owning process's main (the one
// passed to Spawn) or its Await callbacks, which may run on another
// stack but only ever on its behalf; they unwind the process once it
// has crashed or the run has stopped.
type Env struct {
	p *Proc
}

// ID returns the identity of this process.
func (e *Env) ID() ids.ProcID { return e.p.id }

// N returns the number of processes in the system.
func (e *Env) N() int { return e.p.sys.cfg.N }

// T returns the resilience bound t.
func (e *Env) T() int { return e.p.sys.cfg.T }

// All returns the set {1..n} of all process identities (paper's Π).
func (e *Env) All() ids.Set { return ids.FullSet(e.N()) }

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.p.sys.Now() }

// Trace returns the run's decision-trace recorder, nil when the run is
// untraced. Recorder methods are nil-safe and level-gated, so protocol
// code records unconditionally:
//
//	env.Trace().Decide(int64(env.Now()), int(env.ID()), r, v)
func (e *Env) Trace() *trace.Recorder { return e.p.sys.rec }

// checkAlive unwinds the process if it crashed or the run
// stopped (protocol code that swallowed a procKilled panic re-unwinds
// at its next Env call).
func (e *Env) checkAlive() {
	if e.p.dead {
		panic(procKilled{})
	}
}

// Send transmits a message to process "to" over the reliable channel.
// SentAt is stamped by the network at acceptance time (System.accept
// owns the stamp); sends from an already-crashed process are refused there.
func (e *Env) Send(to ids.ProcID, tag Tag, payload any) {
	e.checkAlive()
	if to < 1 || int(to) > e.N() {
		panic(fmt.Sprintf("sim: Send to unknown process %d", to))
	}
	e.p.sys.send(e.p.id, to, tag, payload)
}

// Broadcast sends the message to every process, itself included
// (the paper's Broadcast(m) macro). It is not reliable: a process that
// crashes mid-broadcast in the model may reach only a subset; here the
// whole call either happens before the crash tick or unwinds, which is
// one of the legal behaviours.
func (e *Env) Broadcast(tag Tag, payload any) {
	e.checkAlive()
	e.p.sys.broadcast(e.p.id, tag, payload)
}

// Multicast sends the message to every member of dests (ascending
// identity order, the same order a Send loop over dests.Members would
// use), sharing Broadcast's single-stamp fan-out fast path. Members
// above N are rejected like Send's unknown-process check.
func (e *Env) Multicast(dests ids.Set, tag Tag, payload any) {
	e.checkAlive()
	if int(dests.Max()) > e.N() {
		panic(fmt.Sprintf("sim: Multicast to unknown process %d", dests.Max()))
	}
	e.p.sys.multicast(e.p.id, dests, tag, payload)
}

// Step blocks until something happens, then returns. If a new message is
// available it returns (msg, true); if the process was merely woken by a
// clock tick (time advanced, oracle outputs may have changed) it returns
// (Message{}, false). Protocol code waits through Await instead; Step
// and StepUntil are the literal loop Await is tested against, and what
// the scheduler tests and micro-benchmarks drive.
//
// Step is StepUntil with the next tick as the wake condition: a process
// using it is woken on every tick, which is always correct but prevents
// the scheduler from skipping idle stretches of virtual time.
func (e *Env) Step() (Message, bool) {
	return e.StepUntil(0)
}

// StepUntil is Step with a declared wake condition: it blocks until a new
// message is available (returning it with true) or the virtual clock has
// reached wake (returning (Message{}, false)). A process whose waits are
// purely message-driven passes Never; one pacing itself ("act again at
// time τ") passes τ. The declared deadline is what lets the scheduler
// wake only the processes that need the current tick — and skip ticks
// nobody needs at all.
//
// A wake time at or before the current tick behaves like Step: the call
// always blocks until at least the next tick, so loops around StepUntil
// cannot spin without yielding to the scheduler.
func (e *Env) StepUntil(wake Time) (Message, bool) {
	p := e.p
	s := p.sys
	if s.stepping {
		panic(errBlockInStep)
	}
	if now := s.Now(); wake <= now {
		wake = now + 1
	}
	for {
		if p.dead {
			panic(procKilled{})
		}
		if m := p.receive(); m != nil {
			return *m, true
		}
		if s.Now() >= wake {
			return Message{}, false
		}
		// Park: publish the wake condition and run the tick phases until
		// some process is due. If it is this one, the loop continues with
		// no coroutine switch at all; otherwise the token goes back to
		// Run's loop, which clears the parked bit before resuming
		// a process. A stopped coroutine's yield returns false: the
		// process was killed while parked.
		s.parkedSet.set(p.id)
		s.deadlines[p.id] = wake
		if s.running && s.park(p) {
			continue
		}
		if !p.yield(struct{}{}) {
			panic(procKilled{})
		}
	}
}

// Pending reports whether a delivered message is waiting in the inbox,
// so that the next Step or StepUntil returns it without blocking.
func (e *Env) Pending() bool {
	return e.p.nextRead < len(e.p.inbox)
}

// receive takes the next inbox message, if any, in place: the pointer
// stays valid until the next receive, since nothing delivers during a
// step. Once the inbox is fully drained it zeroes the consumed prefix in
// one bulk clear (cheaper than a per-message wipe at read time, same
// payload-retention hygiene) and resets, so long runs reuse the same
// backing array instead of growing it forever.
func (p *Proc) receive() *Message {
	if p.nextRead < len(p.inbox) {
		p.nextRead++
		return &p.inbox[p.nextRead-1]
	}
	if p.nextRead > 0 {
		clear(p.inbox)
		p.inbox = p.inbox[:0]
		p.nextRead = 0
	}
	return nil
}

// errBlockInStep is the panic value of a blocking Env call made from
// inside an Await step, which may be running on another process's stack.
const errBlockInStep = "sim: blocking Env call (Step, StepUntil, Await) inside an Await step"

// Await is the guarded wait: it has exactly the effects, in the same
// order, of
//
//	for done == nil || !done() {
//		var wake Time // unread by StepUntil while a message is pending
//		if !e.Pending() {
//			wake = next(e.Now())
//		}
//		if m, ok := e.StepUntil(wake); ok {
//			on(&m)
//		} else {
//			on(nil)
//		}
//	}
//
// next is a pure query: it declares the wait's wake time and must
// change nothing a step reads, because it is called only when the
// inbox is empty and the process is about to park. A wait draining
// several messages delivered at one tick calls it once, after the last.
//
// A nil done waits forever (the process runs until it is crashed or the
// run stops). The difference is where the steps run: while the process
// waits, each step (a done evaluation, a next call, an on call) runs on
// the stack of whoever holds the run token when the process is due —
// Run's loop, or another process parking — and the process's own
// coroutine is resumed only when done holds. The callbacks must
// therefore not block: Step, StepUntil or Await called from inside them
// panics. on and done may send and read any run-token state, like the
// code of the loop they stand for.
//
// on gets the message where it sits in the inbox, not a copy: it may
// rewrite *m, and m is valid only during the call (copy *m to keep it).
func (e *Env) Await(next func(now Time) Time, on func(*Message), done func() bool) {
	p := e.p
	s := p.sys
	if s.stepping {
		panic(errBlockInStep)
	}
	p.waitNext, p.waitOn, p.waitDone = next, on, done
	for finished := s.awaitSteps(p, false); !finished; {
		if s.running && s.park(p) {
			finished = s.awaitSteps(p, true)
			continue
		}
		p.awaiting = true
		ok := p.yield(struct{}{})
		p.awaiting = false
		if !ok || p.dead {
			// Stopped while parked, or killed at a tick it was running
			// itself and resumed to unwind: no further step.
			panic(procKilled{})
		}
		// Resumed by the token holder that found done true.
		finished = true
	}
	p.waitNext, p.waitOn, p.waitDone = nil, nil, nil
}

// Crashed reports whether this process has been crashed or stopped.
// Like all run state it is owned by the run token: call it from
// scheduler-side code (OnTick/OnAdvance samplers, stop predicates) or
// after Run returns — protocol code never observes true, its next Env
// call unwinds instead.
func (e *Env) Crashed() bool {
	return e.p.dead
}
