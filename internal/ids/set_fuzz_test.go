package ids

import (
	"math/bits"
	"testing"
)

// FuzzSetOps drives a Set and a bool-slice model through the same
// operation stream decoded from the fuzz input and checks they agree.
// Each pair of input bytes is one operation: the first selects the op,
// the second the process id (mapped into 1..MaxProcs).
//
// Run as a plain test it replays the seed corpus; `go test -fuzz
// FuzzSetOps ./internal/ids` explores further.
func FuzzSetOps(f *testing.F) {
	f.Add([]byte{0, 1, 1, 64, 0, 65, 2, 64, 1, 255})
	f.Add([]byte{4, 63, 4, 64, 4, 64, 2, 64, 4, 255, 1, 255, 4, 255})
	f.Add([]byte{0, 63, 0, 64, 0, 127, 0, 128, 0, 255, 3, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Set
		model := make([]bool, MaxProcs+1)
		for i := 0; i+1 < len(data); i += 2 {
			p := ProcID(int(data[i+1])%MaxProcs + 1)
			switch data[i] % 4 {
			case 0:
				if data[i]&4 == 0 {
					s = s.Add(p)
				} else if got := s.Insert(p); got == model[p] {
					t.Fatalf("Insert(%d) = %v, model says member %v", p, got, model[p])
				}
				model[p] = true
			case 1:
				s = s.Remove(p)
				model[p] = false
			case 2:
				if got := s.Contains(p); got != model[p] {
					t.Fatalf("Contains(%d) = %v, model says %v", p, got, model[p])
				}
			case 3:
				s = s.Intersect(FullSet(int(p)))
				for q := int(p) + 1; q <= MaxProcs; q++ {
					model[q] = false
				}
			}
		}
		size := 0
		var members []ProcID
		for p := 1; p <= MaxProcs; p++ {
			if model[p] {
				size++
				members = append(members, ProcID(p))
			}
		}
		if got := s.Size(); got != size {
			t.Fatalf("Size() = %d, model has %d members", got, size)
		}
		if !NewSet(members...).Equal(s) {
			t.Fatalf("model members %v do not rebuild the set %s", members, s)
		}
		for i, p := range members {
			if s.Nth(i) != p || s.Index(p) != i {
				t.Fatalf("rank queries diverge at member %d", i)
			}
		}
		// Word-level helpers agree with the model at every horizon the
		// final set could be cut at (including word boundaries).
		for _, n := range []int{1, 63, 64, 65, 128, 192, 255, MaxProcs} {
			count := 0
			for p := 1; p <= n; p++ {
				if model[p] {
					count++
				}
			}
			if got := s.CountIn(n); got != count {
				t.Fatalf("CountIn(%d) = %d, model has %d", n, got, count)
			}
			walked := 0
			s.ForEachIn(n, func(p ProcID) bool {
				if int(p) > n || !model[p] {
					t.Fatalf("ForEachIn(%d) yielded %d", n, p)
				}
				walked++
				return true
			})
			if walked != count {
				t.Fatalf("ForEachIn(%d) walked %d, model has %d", n, walked, count)
			}
		}
		if got := s.IntersectSize(s); got != size {
			t.Fatalf("IntersectSize(self) = %d, want %d", got, size)
		}
		words := 0
		s.ForEachWord(func(i int, w uint64) {
			if w == 0 {
				t.Fatalf("ForEachWord visited zero word %d", i)
			}
			words += bits.OnesCount64(w)
		})
		if words != size {
			t.Fatalf("ForEachWord saw %d bits, model has %d", words, size)
		}
	})
}
