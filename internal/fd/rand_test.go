package fd

import (
	"math/rand"
	"testing"

	"fdgrid/internal/ids"
)

// pickDistinctSlice is pickDistinct as it was before it read draws off
// the bitset: the remaining members as a slice, a draw's pick removed
// from it. It is the reference the bitset form must match draw for
// draw.
func pickDistinctSlice(chosen, pool ids.Set, count int, salt uint64) ids.Set {
	members := pool.Minus(chosen).Members()
	for i := 0; i < count && len(members) > 0; i++ {
		j := boundedDrawAppend(len(members), salt, uint64(i))
		chosen = chosen.Add(members[j])
		members = append(members[:j], members[j+1:]...)
	}
	return chosen
}

// boundedDrawAppend is boundedDraw with the attempt appended to the
// keys, as it was written before it hashed the keys once.
func boundedDrawAppend(n int, keys ...uint64) int {
	if n <= 1 {
		return 0
	}
	un := uint64(n)
	reject := -un % un
	for attempt := uint64(0); ; attempt++ {
		v := mix(append(keys, attempt)...)
		if v >= reject {
			return int(v % un)
		}
	}
}

// pickPools returns pools at system size n: full, empty, one member, the
// word-boundary ids, every other id, and a few seeded random sets.
func pickPools(n int) []ids.Set {
	var bounds, odd ids.Set
	for _, p := range []ids.ProcID{1, 63, 64, 65, 128, 129, 256} {
		if int(p) <= n {
			bounds = bounds.Add(p)
		}
	}
	for p := 1; p <= n; p += 2 {
		odd = odd.Add(ids.ProcID(p))
	}
	pools := []ids.Set{ids.FullSet(n), ids.EmptySet(), ids.NewSet(ids.ProcID(n)), bounds, odd}
	r := rand.New(rand.NewSource(int64(n)))
	for i := 0; i < 4; i++ {
		var s ids.Set
		for p := 1; p <= n; p++ {
			if r.Intn(4) != 0 {
				s = s.Add(ids.ProcID(p))
			}
		}
		pools = append(pools, s)
	}
	return pools
}

// TestPickDistinctMatchesSlice: at n ∈ {1, 5, 63, 64, 65, 256}, for
// every pool above, chosen set and count from 0 past the pool's size,
// the bitset pickDistinct returns what the slice form returns.
func TestPickDistinctMatchesSlice(t *testing.T) {
	for _, n := range []int{1, 5, 63, 64, 65, 256} {
		pools := pickPools(n)
		for _, pool := range pools {
			for _, chosen := range []ids.Set{ids.EmptySet(), ids.NewSet(1), pools[len(pools)-1]} {
				for count := 0; count <= pool.Size()+1; count++ {
					for _, salt := range []uint64{0, 42, 1 << 63} {
						got := pickDistinct(chosen, pool, count, salt)
						want := pickDistinctSlice(chosen, pool, count, salt)
						if got != want {
							t.Fatalf("n=%d pool %s chosen %s count %d salt %d: %s, want %s",
								n, pool, chosen, count, salt, got, want)
						}
					}
				}
			}
		}
	}
}

// TestBoundedDrawMatchesAppend: hashing the keys once and the attempt
// after is the same draw as hashing the keys with the attempt appended.
func TestBoundedDrawMatchesAppend(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 64, 255, 256, 1 << 40} {
		for i := uint64(0); i < 200; i++ {
			if got, want := boundedDraw(n, 9, i), boundedDrawAppend(n, 9, i); got != want {
				t.Fatalf("boundedDraw(%d, 9, %d) = %d, want %d", n, i, got, want)
			}
		}
	}
}

// TestPickDistinctAllocs: a draw allocates nothing, at any n.
func TestPickDistinctAllocs(t *testing.T) {
	pool := ids.FullSet(256)
	if a := testing.AllocsPerRun(100, func() { pickDistinct(ids.NewSet(7), pool, 5, 3) }); a != 0 {
		t.Errorf("pickDistinct allocates %.0f times per call, want 0", a)
	}
}

// FuzzPickDistinct: any pool and chosen set over n ≤ 256, any count and
// salt, the bitset form matches the slice form. Input: n−1, count, salt,
// then up to 64 bytes of pool and chosen bits.
func FuzzPickDistinct(f *testing.F) {
	f.Add(byte(4), byte(2), uint64(42), []byte{0x1f, 0x01})
	f.Add(byte(255), byte(9), uint64(7), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x80})
	f.Add(byte(64), byte(3), uint64(1), []byte{0, 0, 0, 0, 0, 0, 0, 0x80, 0x01})
	f.Fuzz(func(t *testing.T, nb, count byte, salt uint64, bits []byte) {
		n := int(nb) + 1
		var pool, chosen ids.Set
		for i, b := range bits {
			for j := 0; j < 8; j++ {
				p := (i*8+j)%(2*n)/2 + 1 // even bits feed the pool, odd ones chosen
				if b&(1<<j) == 0 {
					continue
				}
				if (i*8+j)%2 == 0 {
					pool = pool.Add(ids.ProcID(p))
				} else {
					chosen = chosen.Add(ids.ProcID(p))
				}
			}
		}
		got := pickDistinct(chosen, pool, int(count), salt)
		if want := pickDistinctSlice(chosen, pool, int(count), salt); got != want {
			t.Fatalf("n=%d pool %s chosen %s count %d salt %d: %s, want %s", n, pool, chosen, count, salt, got, want)
		}
	})
}
