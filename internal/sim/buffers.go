package sim

// Buffers is the network's reusable storage: the send records and
// their free list, the eligible queue of copy entries and the pool of
// drained hold buckets. Their capacity is what an all-to-all run grows,
// so a caller that runs many Systems one after another lends each the
// same Buffers (System.UseBuffers) and the arrays are grown once, not
// once per run.
//
// A Buffers is owned by its caller and lent to one System at a time,
// for the length of Run: Run takes the arrays when it starts and hands
// them back when it returns or unwinds. Only the records hold payload
// references; each is zeroed when its last copy is delivered or
// dropped, and the records still live when the run ends are zeroed as
// they are handed back, so no payload reference outlives the run that
// sent it. The entries and buckets hold only indexes. The zero value is
// ready to use; a Buffers is not safe for concurrent use.
type Buffers struct {
	recs       []sendRec
	recFree    []int32
	eligible   []entry
	bucketPool [][]entry
	lent       bool
}

// UseBuffers lends b to the system's Run (see Buffers). A system with
// no Buffers (b nil, or UseBuffers never called) runs on fresh, empty
// ones. Must be called before Run.
func (s *System) UseBuffers(b *Buffers) {
	if s.ran {
		panic("sim: UseBuffers after Run")
	}
	s.buf = b
}

// borrow moves the lent arrays into the system at the start of Run.
// Messages already queued (a send before Run) are carried over: the
// lent arrays are empty, so their records keep their indexes.
func (s *System) borrow() {
	b := s.buf
	if b.lent {
		panic("sim: Buffers lent to two running systems")
	}
	s.recs = append(b.recs, s.recs...)
	s.recFree = append(b.recFree, s.recFree...)
	s.eligible = append(b.eligible, s.eligible...)
	s.bucketPool = b.bucketPool
	*b = Buffers{lent: true}
}

// giveBack zeroes the records still live and returns the arrays to the
// lent Buffers. It runs deferred from Run, after teardown has stopped
// every process, so nothing sends any more; the system keeps no alias
// of what it handed back.
func (s *System) giveBack() {
	clear(s.recs)
	for _, t := range s.heldTimes {
		s.bucketPool = append(s.bucketPool, s.held[t][:0])
		delete(s.held, t)
	}
	*s.buf = Buffers{
		recs:       s.recs[:0],
		recFree:    s.recFree[:0],
		eligible:   s.eligible[:0],
		bucketPool: s.bucketPool,
	}
	s.recs, s.recFree, s.eligible, s.bucketPool = nil, nil, nil, nil
	s.heldTimes = nil
}
