package agreement

import (
	"fmt"
	"strconv"
	"strings"

	"fdgrid/internal/fd"
	"fdgrid/internal/ids"
	"fdgrid/internal/node"
	"fdgrid/internal/rbcast"
	"fdgrid/internal/sim"
)

// The paper motivates zero-degradation by repeated use: "it means that
// future executions do not suffer from past process failures as soon as
// the failure detector behaves perfectly" (§3.2). RunSequence makes that
// executable: it runs consecutive, independent instances of the Fig. 3
// algorithm on one process, with instance-tagged messages, buffering
// messages that arrive from instances this process has not reached yet.

// seqPrefix namespaces instance-tagged messages: "kseq.<i>.<tag>".
const seqPrefix = "kseq."

func seqTags(inst int) ksetTags {
	p := fmt.Sprintf("%s%d.", seqPrefix, inst)
	return ksetTags{
		phase1:   sim.Intern(p + "phase1"),
		phase2:   sim.Intern(p + "phase2"),
		decision: sim.Intern(p + "decision"),
	}
}

// seqInstanceOf extracts the instance number of an instance-tagged
// message; ok is false for foreign tags. Parsing goes through the
// interned name — only the stash path of a sequence run pays it.
func seqInstanceOf(t sim.Tag) (int, bool) {
	tag := t.String()
	if !strings.HasPrefix(tag, seqPrefix) {
		return 0, false
	}
	rest := tag[len(seqPrefix):]
	dot := strings.IndexByte(rest, '.')
	if dot < 0 {
		return 0, false
	}
	inst, err := strconv.Atoi(rest[:dot])
	if err != nil {
		return 0, false
	}
	return inst, true
}

// RunSequence runs len(vals) consecutive k-set agreement instances,
// proposing vals[i] in instance i and recording its decisions in
// outs[i]. It returns this process's decisions. All processes of the
// run must use the same number of instances.
func RunSequence(nd *node.Node, rb *rbcast.Layer, oracle fd.Leader, vals []Value, outs []*Outcome) []Value {
	if len(vals) != len(outs) {
		panic(fmt.Sprintf("agreement: %d values but %d outcomes", len(vals), len(outs)))
	}
	var buf seqBuffer
	results := make([]Value, len(vals))
	for i := range vals {
		stash := func(m *sim.Message) bool { return buf.stash(i, m) }
		results[i] = ksetRun(nd, rb, oracle, vals[i], outs[i], seqTags(i), buf.take(i), stash)
	}
	return results
}

// seqBuffer holds the messages of instances a sequence run has not
// reached yet, per instance, in arrival order.
type seqBuffer struct {
	future map[int][]sim.Message
}

// stash consumes m unless it belongs to instance cur or to no instance:
// a later instance's message is copied into that instance's replay
// buffer, an earlier (finished) instance's message is dropped.
func (b *seqBuffer) stash(cur int, m *sim.Message) bool {
	inst, ok := seqInstanceOf(m.Tag)
	if !ok || inst == cur {
		return false // the instance's own (or foreign) traffic
	}
	if inst > cur {
		if b.future == nil {
			b.future = make(map[int][]sim.Message)
		}
		b.future[inst] = append(b.future[inst], *m)
	}
	return true
}

// take removes and returns instance i's buffered messages.
func (b *seqBuffer) take(i int) []sim.Message {
	ms := b.future[i]
	delete(b.future, i)
	return ms
}

// SequenceMain returns a process main running RunSequence over a fresh
// stack.
func SequenceMain(oracle fd.Leader, vals []Value, outs []*Outcome) func(*sim.Env) {
	return func(env *sim.Env) {
		rb := rbcast.New(env)
		nd := node.New(env, rb)
		RunSequence(nd, rb, oracle, vals, outs)
		nd.RunForever()
	}
}

// AllInstancesDecided returns a stop predicate over a whole sequence.
func AllInstancesDecided(outs []*Outcome, correct ids.Set) func() bool {
	preds := make([]func() bool, len(outs))
	for i, o := range outs {
		preds[i] = o.AllDecided(correct)
	}
	return func() bool {
		for _, p := range preds {
			if !p() {
				return false
			}
		}
		return true
	}
}
