// Package ids provides process identities and identity sets for the
// failure-detector simulations.
//
// Processes are numbered 1..n as in the paper. Sets are fixed-width
// multi-word bit sets capped at MaxProcs members — wide enough for the
// large-n sweep matrices (n up to 256) while keeping set algebra a
// value-type operation: no heap allocation, comparable, copied by
// assignment.
package ids

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"strings"
)

// MaxProcs is the largest number of processes a Set can hold.
const MaxProcs = 256

// SetWords is the number of 64-bit words backing a Set. Exported so the
// scheduler can size its own process masks to match.
const SetWords = MaxProcs / 64

// ProcID identifies a process. Valid IDs are 1..n; 0 is "no process".
type ProcID int

// None is the zero ProcID, meaning "no process".
const None ProcID = 0

// String implements fmt.Stringer.
func (p ProcID) String() string {
	if p == None {
		return "p∅"
	}
	return fmt.Sprintf("p%d", int(p))
}

// Set is an immutable-by-convention bit set of process identities:
// process p occupies bit (p−1)&63 of word (p−1)>>6. The zero value is
// the empty set and is ready to use.
type Set struct {
	w [SetWords]uint64
}

// EmptySet returns the empty set. Equivalent to Set{} but reads better.
func EmptySet() Set { return Set{} }

// NewSet builds a set from the given identities.
// It panics if an identity is outside 1..MaxProcs; identities are trusted
// inputs produced by the simulation, not external data.
func NewSet(members ...ProcID) Set {
	var s Set
	for _, p := range members {
		s = s.Add(p)
	}
	return s
}

// FullSet returns {1..n}.
func FullSet(n int) Set {
	if n < 0 || n > MaxProcs {
		panic(fmt.Sprintf("ids: FullSet(%d) out of range", n))
	}
	var s Set
	for i := 0; i < n>>6; i++ {
		s.w[i] = ^uint64(0)
	}
	if rest := uint(n & 63); rest != 0 {
		s.w[n>>6] = (uint64(1) << rest) - 1
	}
	return s
}

func checkID(p ProcID) {
	if p < 1 || int(p) > MaxProcs {
		panic(fmt.Sprintf("ids: process id %d out of range 1..%d", int(p), MaxProcs))
	}
}

// Add returns s ∪ {p}.
func (s Set) Add(p ProcID) Set {
	checkID(p)
	s.w[(p-1)>>6] |= 1 << (uint(p-1) & 63)
	return s
}

// Insert adds p to s in place and reports whether p was new: Add and
// Contains in one pass, without copying the set.
func (s *Set) Insert(p ProcID) bool {
	checkID(p)
	w, bit := &s.w[(p-1)>>6], uint64(1)<<(uint(p-1)&63)
	if *w&bit != 0 {
		return false
	}
	*w |= bit
	return true
}

// Remove returns s ∖ {p}.
func (s Set) Remove(p ProcID) Set {
	checkID(p)
	s.w[(p-1)>>6] &^= 1 << (uint(p-1) & 63)
	return s
}

// Contains reports whether p ∈ s.
func (s Set) Contains(p ProcID) bool {
	if p < 1 || int(p) > MaxProcs {
		return false
	}
	return s.w[(p-1)>>6]&(1<<(uint(p-1)&63)) != 0
}

// Size returns |s|.
func (s Set) Size() int {
	n := 0
	for _, w := range s.w {
		n += bits.OnesCount64(w)
	}
	return n
}

// IsEmpty reports whether s = ∅.
func (s Set) IsEmpty() bool {
	var u uint64
	for _, w := range s.w {
		u |= w
	}
	return u == 0
}

// Union returns s ∪ o.
func (s Set) Union(o Set) Set {
	for i := range s.w {
		s.w[i] |= o.w[i]
	}
	return s
}

// Intersect returns s ∩ o.
func (s Set) Intersect(o Set) Set {
	for i := range s.w {
		s.w[i] &= o.w[i]
	}
	return s
}

// Minus returns s ∖ o.
func (s Set) Minus(o Set) Set {
	for i := range s.w {
		s.w[i] &^= o.w[i]
	}
	return s
}

// Equal reports whether s = o.
func (s Set) Equal(o Set) bool { return s.w == o.w }

// SubsetOf reports whether s ⊆ o.
func (s Set) SubsetOf(o Set) bool {
	var u uint64
	for i := range s.w {
		u |= s.w[i] &^ o.w[i]
	}
	return u == 0
}

// Intersects reports whether s ∩ o ≠ ∅.
func (s Set) Intersects(o Set) bool {
	var u uint64
	for i := range s.w {
		u |= s.w[i] & o.w[i]
	}
	return u != 0
}

// Min returns the smallest identity in s, or None if s is empty.
func (s Set) Min() ProcID {
	for i, w := range s.w {
		if w != 0 {
			return ProcID(i<<6 + bits.TrailingZeros64(w) + 1)
		}
	}
	return None
}

// Max returns the largest identity in s, or None if s is empty.
func (s Set) Max() ProcID {
	for i := SetWords - 1; i >= 0; i-- {
		if w := s.w[i]; w != 0 {
			return ProcID(i<<6 + 64 - bits.LeadingZeros64(w))
		}
	}
	return None
}

// Members returns the identities in ascending order.
func (s Set) Members() []ProcID {
	out := make([]ProcID, 0, s.Size())
	for i, w := range s.w {
		base := i << 6
		for ; w != 0; w &= w - 1 {
			out = append(out, ProcID(base+bits.TrailingZeros64(w)+1))
		}
	}
	return out
}

// ForEach calls fn on each member in ascending order until fn returns
// false or the set is exhausted.
func (s Set) ForEach(fn func(ProcID) bool) {
	for i, w := range s.w {
		base := i << 6
		for ; w != 0; w &= w - 1 {
			if !fn(ProcID(base + bits.TrailingZeros64(w) + 1)) {
				return
			}
		}
	}
}

// ForEachWord calls fn once per non-zero backing word, in ascending word
// order, with the word's index and bits. Process p occupies bit (p−1)&63
// of word (p−1)>>6, so callers can run their own bit loops over whole
// words — one call per 64 identities instead of one per member, which is
// what keeps n = 256 scans from paying a closure call per process.
func (s Set) ForEachWord(fn func(i int, bits uint64)) {
	for i, w := range s.w {
		if w != 0 {
			fn(i, w)
		}
	}
}

// CountIn returns |s ∩ {1..n}| — a popcount over the live words only,
// with the partial top word masked. The word-level eligibility count for
// quorum and scope checks: no per-member iteration at any n.
func (s Set) CountIn(n int) int {
	if n < 0 {
		return 0
	}
	if n > MaxProcs {
		n = MaxProcs
	}
	c := 0
	for i := 0; i < n>>6; i++ {
		c += bits.OnesCount64(s.w[i])
	}
	if rest := uint(n & 63); rest != 0 {
		c += bits.OnesCount64(s.w[n>>6] & (uint64(1)<<rest - 1))
	}
	return c
}

// IntersectSize returns |s ∩ o| without materializing the intersection.
func (s Set) IntersectSize(o Set) int {
	c := 0
	for i := range s.w {
		c += bits.OnesCount64(s.w[i] & o.w[i])
	}
	return c
}

// ForEachIn calls fn on each member of s ∩ {1..n} in ascending order
// until fn returns false or the members are exhausted — masked
// iteration: ids above n are cut off at the word level, so no per-member
// bound check runs.
func (s Set) ForEachIn(n int, fn func(ProcID) bool) {
	if n > MaxProcs {
		n = MaxProcs
	}
	if n < 1 {
		return
	}
	last := (n - 1) >> 6
	for i := 0; i <= last; i++ {
		w := s.w[i]
		if i == last {
			if rest := uint(n & 63); rest != 0 {
				w &= uint64(1)<<rest - 1
			}
		}
		base := i << 6
		for ; w != 0; w &= w - 1 {
			if !fn(ProcID(base + bits.TrailingZeros64(w) + 1)) {
				return
			}
		}
	}
}

// Nth returns the i-th smallest member (0-based), or None if i is out of
// range.
func (s Set) Nth(i int) ProcID {
	if i < 0 {
		return None
	}
	for j, w := range s.w {
		c := bits.OnesCount64(w)
		if i >= c {
			i -= c
			continue
		}
		for ; i > 0; i-- {
			w &= w - 1
		}
		return ProcID(j<<6 + bits.TrailingZeros64(w) + 1)
	}
	return None
}

// Index returns the 0-based rank of p within s (position in ascending
// order), or -1 if p ∉ s.
func (s Set) Index(p ProcID) int {
	if !s.Contains(p) {
		return -1
	}
	word, bit := int(p-1)>>6, uint(p-1)&63
	rank := bits.OnesCount64(s.w[word] & (uint64(1)<<bit - 1))
	for i := 0; i < word; i++ {
		rank += bits.OnesCount64(s.w[i])
	}
	return rank
}

// String renders the set as {p1,p3,...}.
func (s Set) String() string {
	members := s.Members()
	parts := make([]string, len(members))
	for i, p := range members {
		parts[i] = fmt.Sprintf("%d", int(p))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// MarshalJSON encodes the set as its members in ascending order, e.g.
// [1,3,64]; the empty set is [].
func (s Set) MarshalJSON() ([]byte, error) {
	b := []byte{'['}
	s.ForEach(func(p ProcID) bool {
		if len(b) > 1 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(p), 10)
		return true
	})
	return append(b, ']'), nil
}

// UnmarshalJSON decodes a MarshalJSON list. It rejects anything but a
// strictly ascending list of identities in 1..MaxProcs, so a set that
// decodes is exactly the one its canonical encoding names; null leaves
// the set unchanged, as encoding/json does for other types.
func (s *Set) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		return nil
	}
	var members []int
	if err := json.Unmarshal(data, &members); err != nil {
		return fmt.Errorf("ids: set must be a JSON list of process ids: %w", err)
	}
	var out Set
	for i, m := range members {
		if m < 1 || m > MaxProcs {
			return fmt.Errorf("ids: set member %d out of range 1..%d", m, MaxProcs)
		}
		if i > 0 && m <= members[i-1] {
			return fmt.Errorf("ids: set members must be strictly ascending, got %d after %d", m, members[i-1])
		}
		out = out.Add(ProcID(m))
	}
	*s = out
	return nil
}

// SortIDs sorts a slice of process identities in place and returns it.
func SortIDs(ps []ProcID) []ProcID {
	sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
	return ps
}
