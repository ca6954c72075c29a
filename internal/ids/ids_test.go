package ids

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetBasics(t *testing.T) {
	s := NewSet(3, 1, 7)
	if got := s.Size(); got != 3 {
		t.Fatalf("Size() = %d, want 3", got)
	}
	for _, p := range []ProcID{1, 3, 7} {
		if !s.Contains(p) {
			t.Errorf("Contains(%d) = false, want true", p)
		}
	}
	for _, p := range []ProcID{2, 4, 64} {
		if s.Contains(p) {
			t.Errorf("Contains(%d) = true, want false", p)
		}
	}
	if s.Contains(None) {
		t.Error("Contains(None) = true, want false")
	}
	if got := s.Min(); got != 1 {
		t.Errorf("Min() = %d, want 1", got)
	}
	if got := s.Max(); got != 7 {
		t.Errorf("Max() = %d, want 7", got)
	}
	if got := s.String(); got != "{1,3,7}" {
		t.Errorf("String() = %q, want {1,3,7}", got)
	}
}

// TestSetInsert: Insert adds in place at every word boundary and
// reports only the first insertion of an id.
func TestSetInsert(t *testing.T) {
	var s Set
	for _, p := range []ProcID{1, 64, 65, 128, 129, 256} {
		if !s.Insert(p) {
			t.Errorf("first Insert(%d) = false", p)
		}
		if s.Insert(p) {
			t.Errorf("second Insert(%d) = true", p)
		}
	}
	if want := NewSet(1, 64, 65, 128, 129, 256); s != want {
		t.Errorf("set %s, want %s", s, want)
	}
}

func TestSetZeroValue(t *testing.T) {
	var s Set
	if !s.IsEmpty() {
		t.Error("zero Set not empty")
	}
	if got := s.Min(); got != None {
		t.Errorf("empty Min() = %d, want None", got)
	}
	if got := s.Max(); got != None {
		t.Errorf("empty Max() = %d, want None", got)
	}
	if got := len(s.Members()); got != 0 {
		t.Errorf("empty Members() has %d elements", got)
	}
	if got := s.String(); got != "{}" {
		t.Errorf("empty String() = %q", got)
	}
}

func TestFullSet(t *testing.T) {
	for _, n := range []int{0, 1, 5, 63, 64, 65, 127, 128, 255, 256} {
		s := FullSet(n)
		if got := s.Size(); got != n {
			t.Errorf("FullSet(%d).Size() = %d", n, got)
		}
		if n > 0 && (!s.Contains(1) || !s.Contains(ProcID(n))) {
			t.Errorf("FullSet(%d) missing endpoints", n)
		}
		if n < MaxProcs && s.Contains(ProcID(n+1)) {
			t.Errorf("FullSet(%d) contains %d", n, n+1)
		}
	}
}

func TestSetAlgebra(t *testing.T) {
	a := NewSet(1, 2, 3)
	b := NewSet(3, 4)
	if got := a.Union(b); !got.Equal(NewSet(1, 2, 3, 4)) {
		t.Errorf("Union = %s", got)
	}
	if got := a.Intersect(b); !got.Equal(NewSet(3)) {
		t.Errorf("Intersect = %s", got)
	}
	if got := a.Minus(b); !got.Equal(NewSet(1, 2)) {
		t.Errorf("Minus = %s", got)
	}
	if !NewSet(1, 2).SubsetOf(a) {
		t.Error("SubsetOf = false, want true")
	}
	if b.SubsetOf(a) {
		t.Error("SubsetOf = true, want false")
	}
	if !a.Intersects(b) {
		t.Error("Intersects = false, want true")
	}
	if a.Intersects(NewSet(9)) {
		t.Error("Intersects = true, want false")
	}
	if got := a.Remove(2); !got.Equal(NewSet(1, 3)) {
		t.Errorf("Remove = %s", got)
	}
}

func TestNthAndIndex(t *testing.T) {
	s := NewSet(2, 5, 9)
	want := []ProcID{2, 5, 9}
	for i, p := range want {
		if got := s.Nth(i); got != p {
			t.Errorf("Nth(%d) = %d, want %d", i, got, p)
		}
		if got := s.Index(p); got != i {
			t.Errorf("Index(%d) = %d, want %d", p, got, i)
		}
	}
	if got := s.Nth(3); got != None {
		t.Errorf("Nth(3) = %d, want None", got)
	}
	if got := s.Nth(-1); got != None {
		t.Errorf("Nth(-1) = %d, want None", got)
	}
	if got := s.Index(4); got != -1 {
		t.Errorf("Index(4) = %d, want -1", got)
	}
}

func TestForEachEarlyStop(t *testing.T) {
	s := NewSet(1, 2, 3, 4)
	var seen []ProcID
	s.ForEach(func(p ProcID) bool {
		seen = append(seen, p)
		return len(seen) < 2
	})
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
		t.Errorf("ForEach early stop saw %v", seen)
	}
}

func TestCheckIDPanics(t *testing.T) {
	for _, p := range []ProcID{0, -1, MaxProcs + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%d) did not panic", p)
				}
			}()
			Set{}.Add(p)
		}()
	}
}

// randomSet draws a set over {1..n} for property tests.
func randomSet(r *rand.Rand, n int) Set {
	var s Set
	for p := 1; p <= n; p++ {
		if r.Intn(2) == 0 {
			s = s.Add(ProcID(p))
		}
	}
	return s
}

func TestQuickSetLaws(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}
	// De Morgan-ish and size laws over random sets.
	law := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomSet(r, 16), randomSet(r, 16)
		u, i := a.Union(b), a.Intersect(b)
		if u.Size()+i.Size() != a.Size()+b.Size() {
			return false
		}
		if !i.SubsetOf(a) || !i.SubsetOf(b) || !a.SubsetOf(u) || !b.SubsetOf(u) {
			return false
		}
		if !a.Minus(b).Union(i).Equal(a) {
			return false
		}
		// Members round-trips through NewSet.
		if !NewSet(a.Members()...).Equal(a) {
			return false
		}
		return true
	}
	if err := quick.Check(law, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickNthIndexInverse(t *testing.T) {
	law := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomSet(r, 20)
		for i := 0; i < s.Size(); i++ {
			if s.Index(s.Nth(i)) != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(law, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSortIDs(t *testing.T) {
	got := SortIDs([]ProcID{5, 1, 3})
	if got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Errorf("SortIDs = %v", got)
	}
}

func TestProcIDString(t *testing.T) {
	if got := ProcID(4).String(); got != "p4" {
		t.Errorf("String() = %q", got)
	}
	if got := None.String(); got != "p∅" {
		t.Errorf("None.String() = %q", got)
	}
}
