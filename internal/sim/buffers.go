package sim

// Buffers is the network's reusable storage: the eligible and arrivals
// queues, the full-delivery selection scratch and the pool of drained
// hold buckets. Their capacity is what an all-to-all run grows — up to
// 330,752 messages (18.5 MB) of eligible at n = 256 — so a caller that
// runs many Systems one after another lends each the same Buffers
// (System.UseBuffers) and the arrays are grown once, not once per run.
//
// A Buffers is owned by its caller and lent to one System at a time,
// for the length of Run: Run takes the arrays when it starts and hands
// them back, zeroed, when it returns or unwinds. Zeroing covers only the
// region the run dirtied, so a small run on buffers grown by a large one
// does not pay to clear their whole capacity. No payload reference
// outlives the run that sent it. The zero value is ready to use; a
// Buffers is not safe for concurrent use.
type Buffers struct {
	eligible   []Message
	arrivals   []envelope
	selPairs   []selPair
	selSlot    []int32
	bucketPool [][]envelope
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
// Messages already queued (a send before Run) are carried over.
func (s *System) borrow() {
	b := s.buf
	if b.lent {
		panic("sim: Buffers lent to two running systems")
	}
	s.eligible = append(b.eligible, s.eligible...)
	s.arrivals = append(b.arrivals, s.arrivals...)
	s.selPairs, s.selSlot, s.bucketPool = b.selPairs, b.selSlot, b.bucketPool
	*b = Buffers{lent: true}
}

// giveBack zeroes the region of each array the run dirtied and returns
// the arrays to the lent Buffers. It runs deferred from Run, after
// teardown has stopped every process, so nothing sends any more; the
// system keeps no alias of what it handed back.
func (s *System) giveBack() {
	clear(s.eligible[:max(len(s.eligible), s.eligDirty)])
	clear(s.arrivals[:max(len(s.arrivals), s.arrDirty)])
	clear(s.selSlot[:s.selDirty])
	clear(s.selPairs[:min(s.selDirty, cap(s.selPairs))])
	// Buckets still holding unreleased messages go back to the pool,
	// zeroed; drained ones were zeroed when route recycled them.
	for _, t := range s.heldTimes {
		bucket := s.held[t]
		clear(bucket)
		s.bucketPool = append(s.bucketPool, bucket[:0])
		delete(s.held, t)
	}
	*s.buf = Buffers{
		eligible:   s.eligible[:0],
		arrivals:   s.arrivals[:0],
		selPairs:   s.selPairs,
		selSlot:    s.selSlot,
		bucketPool: s.bucketPool,
	}
	s.eligible, s.arrivals, s.selPairs, s.selSlot, s.bucketPool = nil, nil, nil, nil, nil
	s.heldTimes = nil
	s.eligDirty, s.arrDirty, s.selDirty = 0, 0, 0
}
