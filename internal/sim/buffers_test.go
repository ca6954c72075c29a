package sim

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"fdgrid/internal/ids"
)

// span returns the set {lo..hi}.
func span(lo, hi int) ids.Set {
	var s ids.Set
	for p := lo; p <= hi; p++ {
		s = s.Add(ids.ProcID(p))
	}
	return s
}

// bufferWorkload is a run that dirties every array Buffers holds.
// Broadcast ticks beyond the bandwidth give partial delivery; lighter
// multicast ticks drain the backlog in full delivery, in whichever form
// fullScatterMin picks; process 2 crashes. With holds, every send is
// staged in arrivals, and hold buckets fill: from the start, in a
// window, and past MaxSteps, so some are still full when the run ends.
// Without holds, sends go straight to eligible, so the run ends with
// its last sends queued over the stale tail of earlier deliveries. With
// panicAt > 0, process 1's main panics at that tick. It returns the
// system and every message each process received, in order.
func bufferWorkload(n int, holds bool, buf *Buffers, panicAt Time) (*System, map[ids.ProcID][]Message) {
	cfg := Config{
		N: n, T: 2, Seed: 17, MaxSteps: 60,
		Bandwidth: n * n / 2,
		Crashes:   map[ids.ProcID]Time{2: 20},
	}
	if holds {
		cfg.Holds = []Hold{
			{From: span(1, n/2), To: span(n/2+1, n), Until: 25},
			{From: ids.NewSet(ids.ProcID(n)), To: ids.NewSet(1), Since: 10, Until: 45},
			{From: ids.NewSet(1), To: ids.NewSet(3, 4), Since: 30, Until: 1_000},
		}
	}
	sys := MustNew(cfg)
	if buf != nil {
		sys.UseBuffers(buf)
	}
	tag := Intern("buffers.flood")
	got := make(map[ids.ProcID][]Message)
	sys.SpawnAll(func(env *Env) {
		id := env.ID()
		for {
			now := env.Now()
			if id == 1 && panicAt > 0 && now >= panicAt {
				panic("protocol bug")
			}
			if now%3 == 0 {
				env.Broadcast(tag, int(now)*1000+int(id))
			} else {
				env.Multicast(span(1, n/4), tag, -int(now))
			}
			for {
				m, ok := env.StepUntil(now + 1)
				if !ok {
					break
				}
				got[id] = append(got[id], m)
			}
		}
	})
	return sys, got
}

// checkZero fails t unless every slot of every array b holds, up to
// its capacity, is the zero value, and b is not lent.
func checkZero(t *testing.T, b *Buffers) {
	t.Helper()
	if b.lent {
		t.Error("buffers still marked lent after Run")
	}
	zero := func(name string, n int, at func(int) bool) {
		for i := 0; i < n; i++ {
			if !at(i) {
				t.Errorf("%s[%d] not zero after Run", name, i)
				return
			}
		}
	}
	el, ar := b.eligible[:cap(b.eligible)], b.arrivals[:cap(b.arrivals)]
	pairs, slots := b.selPairs[:cap(b.selPairs)], b.selSlot[:cap(b.selSlot)]
	zero("eligible", len(el), func(i int) bool { return el[i] == Message{} })
	zero("arrivals", len(ar), func(i int) bool { return ar[i] == envelope{} })
	zero("selPairs", len(pairs), func(i int) bool { return pairs[i] == selPair{} })
	zero("selSlot", len(slots), func(i int) bool { return slots[i] == 0 })
	for k, bucket := range b.bucketPool {
		bucket = bucket[:cap(bucket)]
		zero(fmt.Sprintf("bucketPool[%d]", k), len(bucket), func(i int) bool { return bucket[i] == envelope{} })
	}
}

// TestBuffersHandedBackZero: Run hands its Buffers back zeroed over
// their whole capacity — after a run that ends with messages still
// eligible and held, in both full-delivery forms, and after a run that
// re-panics from a protocol main.
func TestBuffersHandedBackZero(t *testing.T) {
	defer func(saved int) { fullScatterMin = saved }(fullScatterMin)
	for _, holds := range []bool{false, true} {
		for _, scatterMin := range []int{1 << 30, 64} {
			fullScatterMin = scatterMin
			var b Buffers
			sys, _ := bufferWorkload(32, holds, &b, 0)
			sys.Run(nil)
			if sys.InFlight() == 0 || cap(b.selSlot) == 0 || (scatterMin == 64 && cap(b.selPairs) == 0) {
				t.Fatalf("holds=%v fullScatterMin=%d: nothing left in flight or a delivery form never ran; the check is vacuous", holds, scatterMin)
			}
			checkZero(t, &b)
		}
		var b Buffers
		func() {
			defer func() {
				if r := recover(); r != "protocol bug" {
					t.Fatalf("Run re-raised %v, want the protocol panic", r)
				}
			}()
			sys, _ := bufferWorkload(32, holds, &b, 40)
			sys.Run(nil)
		}()
		if cap(b.eligible) == 0 {
			t.Fatal("panicking run handed back no buffers; the check is vacuous")
		}
		checkZero(t, &b)
	}
}

// TestBuffersReuseEquivalent: a run on Buffers a larger run left behind
// — grown by holds, windowed holds, partial delivery and both
// full-delivery forms — reports and delivers exactly what the same run
// on fresh, empty capacity does.
func TestBuffersReuseEquivalent(t *testing.T) {
	defer func(saved int) { fullScatterMin = saved }(fullScatterMin)
	for _, holds := range []bool{false, true} {
		for _, scatterMin := range []int{1 << 30, 64} {
			fullScatterMin = scatterMin
			fresh, freshGot := bufferWorkload(16, holds, nil, 0)
			freshRep := fresh.Run(nil)

			// Dirty the buffers with both larger runs: the one with holds
			// grows arrivals and the bucket pool, the one without ends
			// with sends still queued in eligible.
			var b Buffers
			for _, bigHolds := range []bool{true, false} {
				big, _ := bufferWorkload(64, bigHolds, &b, 0)
				big.Run(nil)
			}
			if cap(b.eligible) == 0 || cap(b.selSlot) == 0 || len(b.bucketPool) == 0 {
				t.Fatal("the larger run grew no buffers; the comparison is vacuous")
			}
			warm, warmGot := bufferWorkload(16, holds, &b, 0)
			warmRep := warm.Run(nil)

			if !reflect.DeepEqual(freshRep, warmRep) {
				t.Fatalf("holds=%v fullScatterMin=%d: report on reused buffers diverges:\nfresh: %+v\nwarm:  %+v",
					holds, scatterMin, freshRep, warmRep)
			}
			for p := ids.ProcID(1); p <= 16; p++ {
				if !reflect.DeepEqual(freshGot[p], warmGot[p]) {
					t.Fatalf("holds=%v fullScatterMin=%d: process %d received a different sequence on reused buffers",
						holds, scatterMin, p)
				}
			}
			if len(freshGot[1]) == 0 {
				t.Fatal("workload delivered nothing; the comparison is vacuous")
			}
		}
	}
}

// TestBuffersReused: a second run of the same configuration on warm
// Buffers runs in the arrays the first one grew — eligible keeps its
// backing array and capacity instead of being re-grown.
func TestBuffersReused(t *testing.T) {
	var b Buffers
	first, _ := bufferWorkload(32, true, &b, 0)
	first.Run(nil)
	array, size := unsafe.SliceData(b.eligible), cap(b.eligible)
	if size == 0 {
		t.Fatal("the first run grew no eligible array")
	}
	second, _ := bufferWorkload(32, true, &b, 0)
	second.Run(nil)
	if unsafe.SliceData(b.eligible) != array || cap(b.eligible) != size {
		t.Errorf("eligible re-grown on warm buffers: cap %d → %d", size, cap(b.eligible))
	}
}

// TestBuffersLentForRunOnly: a System holds its Buffers only while it
// runs. One built but never run does not strand them; a second System
// of the same owner gets them once the first has returned them; two
// systems running at once on the same Buffers is refused.
func TestBuffersLentForRunOnly(t *testing.T) {
	var b Buffers
	_, _ = bufferWorkload(8, true, &b, 0) // built with the Buffers, never run
	for i := 0; i < 2; i++ {
		sys, _ := bufferWorkload(8, true, &b, 0)
		sys.Run(nil)
	}
	if b.lent || cap(b.eligible) == 0 {
		t.Fatalf("after two sequential runs: lent=%v cap=%d", b.lent, cap(b.eligible))
	}

	outer := MustNew(Config{N: 2, T: 0, Seed: 1, MaxSteps: 10})
	outer.UseBuffers(&b)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("a nested run borrowed buffers already lent")
		}
		if b.lent {
			t.Error("the outer run did not return its buffers after the nested panic")
		}
	}()
	outer.Run(func() bool {
		inner := MustNew(Config{N: 2, T: 0, Seed: 1, MaxSteps: 10})
		inner.UseBuffers(&b)
		inner.Run(nil)
		return true
	})
}
