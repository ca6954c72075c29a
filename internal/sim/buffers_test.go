package sim

import (
	"reflect"
	"slices"
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
// multicast ticks drain the backlog in full delivery; process 2
// crashes. With holds, hold buckets fill: from the start, in a window,
// and past MaxSteps, so some are still full when the run ends.
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

// checkZero fails t unless every send record b holds, up to its
// capacity, is the zero value — the records are the only part of
// Buffers that references payloads — and b is not lent.
func checkZero(t *testing.T, b *Buffers) {
	t.Helper()
	if b.lent {
		t.Error("buffers still marked lent after Run")
	}
	for i, r := range b.recs[:cap(b.recs)] {
		if r != (sendRec{}) {
			t.Errorf("recs[%d] not zero after Run: %+v", i, r)
			return
		}
	}
}

// TestBuffersHandedBackZero: Run hands its send records back zeroed
// over their whole capacity — after a run that ends with messages still
// eligible and held, and after a run that re-panics from a protocol
// main.
func TestBuffersHandedBackZero(t *testing.T) {
	for _, holds := range []bool{false, true} {
		var b Buffers
		sys, _ := bufferWorkload(32, holds, &b, 0)
		sys.Run(nil)
		if sys.InFlight() == 0 || cap(b.recs) == 0 {
			t.Fatalf("holds=%v: nothing left in flight or no record handed back; the check is vacuous", holds)
		}
		if holds && len(b.bucketPool) == 0 {
			t.Fatal("no hold bucket was handed back; the check is vacuous")
		}
		checkZero(t, &b)

		b = Buffers{}
		func() {
			defer func() {
				if r := recover(); r != "protocol bug" {
					t.Fatalf("Run re-raised %v, want the protocol panic", r)
				}
			}()
			sys, _ := bufferWorkload(32, holds, &b, 40)
			sys.Run(nil)
		}()
		if cap(b.recs) == 0 {
			t.Fatal("panicking run handed back no buffers; the check is vacuous")
		}
		checkZero(t, &b)
	}
}

// TestBuffersReuseEquivalent: a run on Buffers a larger run left behind
// — grown by holds, windowed holds, partial and full delivery — reports
// and delivers exactly what the same run on fresh, empty capacity does.
func TestBuffersReuseEquivalent(t *testing.T) {
	for _, holds := range []bool{false, true} {
		fresh, freshGot := bufferWorkload(16, holds, nil, 0)
		freshRep := fresh.Run(nil)

		// Dirty the buffers with both larger runs: the one with holds
		// grows the bucket pool, the one without ends with sends still
		// queued in eligible.
		var b Buffers
		for _, bigHolds := range []bool{true, false} {
			big, _ := bufferWorkload(64, bigHolds, &b, 0)
			big.Run(nil)
		}
		if cap(b.eligible) == 0 || cap(b.recs) == 0 || len(b.bucketPool) == 0 {
			t.Fatal("the larger run grew no buffers; the comparison is vacuous")
		}
		warm, warmGot := bufferWorkload(16, holds, &b, 0)
		warmRep := warm.Run(nil)

		if !reflect.DeepEqual(freshRep, warmRep) {
			t.Fatalf("holds=%v: report on reused buffers diverges:\nfresh: %+v\nwarm:  %+v",
				holds, freshRep, warmRep)
		}
		for p := ids.ProcID(1); p <= 16; p++ {
			if !reflect.DeepEqual(freshGot[p], warmGot[p]) {
				t.Fatalf("holds=%v: process %d received a different sequence on reused buffers", holds, p)
			}
		}
		if len(freshGot[1]) == 0 {
			t.Fatal("workload delivered nothing; the comparison is vacuous")
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

// TestRecordPayloadReleased: a send record drops its payload the moment
// its last copy leaves the network, delivered or dropped at a crashed
// destination, and not before: a broadcast to four processes, one of
// them crashed, is delivered one copy per tick, and a send to the
// crashed process alone is dropped whole.
func TestRecordPayloadReleased(t *testing.T) {
	tag := Intern("buffers.release")
	sys := MustNew(Config{N: 4, T: 1, Seed: 5, MaxSteps: 100, Crashes: map[ids.ProcID]Time{3: 0}})
	payload := new(int)
	sys.broadcast(1, tag, payload)
	for at := Time(1); at <= 4; at++ {
		r := sys.recs[0]
		if r.payload != payload || int(r.live) != 5-int(at) {
			t.Fatalf("before tick %d: record holds %v with %d live copies, want the payload and %d", at, r.payload, r.live, 5-at)
		}
		sys.deliverPhase(at)
	}
	if sys.recs[0] != (sendRec{}) || !slices.Equal(sys.recFree, []int32{0}) {
		t.Fatalf("after the last copy: record %+v, free list %v; want zeroed and free", sys.recs[0], sys.recFree)
	}
	if got := sys.Metrics().Snapshot().Dropped[tag.String()]; got != 1 {
		t.Fatalf("%d copies dropped at the crashed destination, want 1", got)
	}

	sys.send(2, 3, tag, payload)
	if sys.recs[0].payload != payload {
		t.Fatal("the send did not reuse the freed record")
	}
	sys.deliverPhase(5)
	if sys.recs[0] != (sendRec{}) || sys.Metrics().Snapshot().Dropped[tag.String()] != 2 {
		t.Fatalf("a copy dropped at the crashed destination left its record %+v", sys.recs[0])
	}
	crashed := sys.procs[3].inbox
	for _, m := range crashed[:cap(crashed)] {
		if m.Payload == payload {
			t.Fatal("a dropped copy's payload is still in the crashed process's inbox")
		}
	}
}
