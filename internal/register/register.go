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
// process's register. A register is named by its owner and a Reg, a
// small index the algorithm assigns its registers (Fig. 9 has two,
// alive and suspect), so every substrate keeps its values in
// [owner][reg] slots and no access hashes a name.
package register

import (
	"fdgrid/internal/ids"
)

// Reg names one of a process's registers. Algorithms number theirs from
// 0 up, as constants; a substrate sizes its slots by the largest index
// it has seen, so keep the numbers small.
type Reg uint8

// Store is one process's handle on the register space. Register values
// must be immutable (ints, ids.Set, …): they are shared across processes
// without copying.
type Store interface {
	// Write updates this process's register r.
	Write(r Reg, v any)
	// Read returns owner's register r, or nil if never written.
	Read(owner ids.ProcID, r Reg) any
}

// slots holds one value per register, indexed [owner][reg]. It grows
// on demand, so a register never written reads the zero value.
type slots[T any] [][]T

// at returns the slot of owner's register r, growing the table to hold
// it.
func (s *slots[T]) at(owner ids.ProcID, r Reg) *T {
	if int(owner) >= len(*s) {
		*s = append(*s, make([][]T, int(owner)+1-len(*s))...)
	}
	row := &(*s)[owner]
	if int(r) >= len(*row) {
		*row = append(*row, make([]T, int(r)+1-len(*row))...)
	}
	return &(*row)[r]
}

// get returns owner's register r, or the zero value if it was never
// stored.
func (s slots[T]) get(owner ids.ProcID, r Reg) (v T) {
	if owner >= 0 && int(owner) < len(s) && int(r) < len(s[owner]) {
		v = s[owner][r]
	}
	return v
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
	regs slots[any]
}

// NewMemory returns an empty shared register space.
func NewMemory() *Memory {
	return &Memory{}
}

// View returns process p's Store handle.
func (m *Memory) View(p ids.ProcID) Store {
	return &memView{mem: m, me: p}
}

type memView struct {
	mem *Memory
	me  ids.ProcID
}

var _ Store = (*memView)(nil)

func (v *memView) Write(r Reg, val any) {
	*v.mem.regs.at(v.me, r) = val
}

func (v *memView) Read(owner ids.ProcID, r Reg) any {
	return v.mem.regs.get(owner, r)
}
