// Package register provides the single-writer multi-reader registers the
// paper's Appendix B algorithm (Fig. 9) is written against, with three
// substrates:
//
//   - Memory: the shared-memory model itself (atomic registers in one
//     address space);
//   - Heartbeat: the paper's remark that the algorithm "can be easily
//     translated into the message-passing model without adding any
//     requirement on t" — writers broadcast updates, readers use the
//     freshest value received (a regular register with eventual
//     propagation, which is all Fig. 9's proof needs);
//   - ABD: the classic majority-quorum atomic register emulation
//     (requires t < n/2), for runs that want atomic semantics over
//     messages.
//
// Each process interacts with its substrate through the Store interface:
// Write writes one of the calling process's own registers, Read reads any
// process's register.
package register

import (
	"fdgrid/internal/ids"
)

// Store is one process's handle on the register space. Register values
// must be immutable (ints, ids.Set, …): they are shared across processes
// without copying.
type Store interface {
	// Write updates this process's register name.
	Write(name string, v any)
	// Read returns owner's register name, or nil if never written.
	Read(owner ids.ProcID, name string) any
}

// key identifies a register: single-writer by construction.
type key struct {
	owner ids.ProcID
	name  string
}

// Memory is a shared-memory register space: the substrate of the paper's
// shared-memory model. Create one Memory per run and a view per process.
//
// Like every register substrate, a Memory is run-token state: processes
// read and write it from their own coroutines, but only while holding
// the run token, so the scheduler's coroutine switches serialize every
// access and no lock is involved (the -race CI job verifies this along
// with the rest of the ownership contract). The atomicity the paper's
// model asks of a register is exactly what token serialization gives.
type Memory struct {
	regs map[key]any
}

// NewMemory returns an empty shared register space.
func NewMemory() *Memory {
	return &Memory{regs: make(map[key]any)}
}

// View returns process p's Store handle.
func (m *Memory) View(p ids.ProcID) Store {
	return &memView{mem: m, me: p}
}

func (m *Memory) write(k key, v any) {
	m.regs[k] = v
}

func (m *Memory) read(k key) any {
	return m.regs[k]
}

type memView struct {
	mem *Memory
	me  ids.ProcID
}

var _ Store = (*memView)(nil)

func (v *memView) Write(name string, val any) {
	v.mem.write(key{owner: v.me, name: name}, val)
}

func (v *memView) Read(owner ids.ProcID, name string) any {
	return v.mem.read(key{owner: owner, name: name})
}
