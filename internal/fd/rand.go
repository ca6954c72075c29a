package fd

import (
	"fdgrid/internal/ids"
	"fdgrid/internal/sim"
)

// splitmix64 is the finalizer of the SplitMix64 generator; it is used to
// derive stateless, deterministic pseudo-random values from run seed,
// process ids, epochs and set contents, so oracle outputs are pure
// functions of (time, arguments) and need no locking.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mix folds the keys into one 64-bit hash.
func mix(keys ...uint64) uint64 {
	h := uint64(0x243f6a8885a308d3)
	for _, k := range keys {
		h = splitmix64(h ^ k)
	}
	return h
}

// chance reports a pseudo-random event of probability rate, deterministic
// in the keys.
func chance(rate float64, keys ...uint64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	const scale = 1 << 53
	v := mix(keys...) >> 11 // top 53 bits
	return float64(v) < rate*scale
}

// epochOf buckets time into anarchy epochs.
func epochOf(now, epoch sim.Time) uint64 {
	if now < 0 {
		return 0
	}
	return uint64(now / epoch)
}

// setKey folds a Set into a hash key.
func setKey(s ids.Set) uint64 {
	var k uint64
	s.ForEach(func(p ids.ProcID) bool {
		k = splitmix64(k ^ uint64(p))
		return true
	})
	return k
}

// boundedDraw returns an unbiased deterministic value in [0, n): 64-bit
// draws from the keyed splitmix stream are rejected while they fall in
// the 2^64 mod n remainder zone, so no residue is over-represented. A
// plain `mix(...) % n` favours the low residues by up to n/2^64 per
// value — negligible alone, but a systematic skew once n grows toward
// MaxProcs = 256 and the draw feeds every generated scope and trusted
// set of a sweep.
func boundedDraw(n int, keys ...uint64) int {
	if n <= 1 {
		return 0
	}
	un := uint64(n)
	reject := -un % un // 2^64 mod n: the short final bucket
	h := mix(keys...)
	for attempt := uint64(0); ; attempt++ {
		v := splitmix64(h ^ attempt) // = mix(keys..., attempt): mix folds left to right
		if v >= reject {
			return int(v % un)
		}
	}
}

// pickDistinct deterministically selects count members from pool
// (excluding those already in chosen), returning chosen ∪ picks. Draw i
// takes the j-th smallest member still left, j uniform over how many
// are left, read straight off the bitset.
func pickDistinct(chosen, pool ids.Set, count int, salt uint64) ids.Set {
	left := pool.Minus(chosen)
	size := left.Size()
	for i := 0; i < count && size > 0; i++ {
		p := left.Nth(boundedDraw(size, salt, uint64(i)))
		chosen, left, size = chosen.Add(p), left.Remove(p), size-1
	}
	return chosen
}
