package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"fdgrid/internal/ids"
)

// TestIntnMatchesMathRand pins the delivery phase's draw source: every
// run's random choices must consume the seed exactly as
// math/rand.Rand.Intn does, because the committed golden results encode
// that draw sequence. If intn ever diverges, every golden in the repo
// would silently shift — this test makes the divergence loud instead.
func TestIntnMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, 7, 20260807} {
		sys := MustNew(Config{N: 2, T: 0, Seed: seed, MaxSteps: 10})
		ref := rand.New(rand.NewSource(seed))
		// Mixed bounds: powers of two (mask path), odd bounds
		// (rejection path), 1 (degenerate), and large values near the
		// int32 rejection threshold.
		bounds := []int{1, 2, 3, 7, 8, 64, 100, 1000, 65536, 1 << 30, 1<<30 + 1}
		for round := 0; round < 2000; round++ {
			n := bounds[round%len(bounds)]
			if got, want := sys.intn(n), ref.Intn(n); got != want {
				t.Fatalf("seed %d draw %d (bound %d): intn = %d, rand.Intn = %d",
					seed, round, n, got, want)
			}
		}
	}
}

// TestBatchedDeliveryMetricsExact checks that the batched delivery path
// keeps the per-tag counters per-message-exact: a run whose messages
// land through the coalesced broadcast/flush path reports the same
// MetricsSnapshot as an equivalent run sending every copy individually
// — including drops at a crashed receiver.
func TestBatchedDeliveryMetricsExact(t *testing.T) {
	const (
		n     = 8
		ticks = 40
	)
	tagA := Intern("batch.a")
	tagB := Intern("batch.b")
	cfg := Config{
		N: n, T: 1, Seed: 3, MaxSteps: ticks,
		Bandwidth: 2 * n * n,
		Crashes:   map[ids.ProcID]Time{4: 10},
	}

	run := func(broadcast bool) MetricsSnapshot {
		sys := MustNew(cfg)
		sys.SpawnAll(func(env *Env) {
			for {
				next := env.Now() + 1
				if broadcast {
					env.Broadcast(tagA, nil)
					env.Broadcast(tagB, nil)
				} else {
					for q := 1; q <= env.N(); q++ {
						env.Send(ids.ProcID(q), tagA, nil)
					}
					for q := 1; q <= env.N(); q++ {
						env.Send(ids.ProcID(q), tagB, nil)
					}
				}
				for {
					if _, ok := env.StepUntil(next); !ok {
						break
					}
				}
			}
		})
		sys.Run(nil)
		return sys.Metrics().Snapshot()
	}

	batched, unbatched := run(true), run(false)
	if !reflect.DeepEqual(batched, unbatched) {
		t.Fatalf("metrics diverge between broadcast and per-copy sends:\nbatched:   %+v\nunbatched: %+v",
			batched, unbatched)
	}
	if batched.Dropped[tagA.String()] == 0 || batched.Dropped[tagB.String()] == 0 {
		t.Fatalf("expected drops at the crashed receiver, got %+v", batched.Dropped)
	}
	wantSent := int64(ticks-1) * n * n // every live tick: n procs × n copies per tag
	if batched.Sent[tagA.String()] >= wantSent {
		// Crash at tick 10 removes one sender: strictly fewer sends.
		t.Fatalf("crash did not reduce sends: %d", batched.Sent[tagA.String()])
	}
	for _, snap := range []MetricsSnapshot{batched, unbatched} {
		for _, tag := range []string{tagA.String(), tagB.String()} {
			if snap.Delivered[tag]+snap.Dropped[tag] > snap.Sent[tag] {
				t.Fatalf("tag %s: delivered %d + dropped %d exceeds sent %d",
					tag, snap.Delivered[tag], snap.Dropped[tag], snap.Sent[tag])
			}
		}
	}
}

// TestDeliverPhaseMatchesPerMessage pins the batched delivery phase to
// the plain per-message swap-remove it stands for: draw j =
// Intn(len(eligible)), deliver eligible[j], move the last message into
// its place, repeat Bandwidth times. eligible is filled directly, so
// the sizes span the small, cache-resident ticks and those past 16384
// messages (~1 MB) where eligible no longer fits in cache, under full
// and partial bandwidth. Every destination starts with a message
// already in its inbox, and one destination has crashed: its batch is
// dropped, leaving its inbox as it was and the cut tail zeroed. Inboxes,
// the leftover eligible list, the draw stream's position, in-flight
// count, wake bits and per-tag counters must all match the reference.
func TestDeliverPhaseMatchesPerMessage(t *testing.T) {
	const (
		n       = 16
		crashed = ids.ProcID(5)
		now     = Time(7)
	)
	tags := []Tag{Intern("batch.ref.a"), Intern("batch.ref.b")}
	for _, size := range []int{1, 7, 64, 4096, 20000} {
		for _, k := range []int{size, size / 2} {
			if k == 0 {
				continue
			}
			seed := int64(size*31 + k)
			sys := MustNew(Config{
				N: n, T: 1, Seed: seed, MaxSteps: 100, Bandwidth: k,
				Crashes: map[ids.ProcID]Time{crashed: 3},
			})
			gen := rand.New(rand.NewSource(seed + 1))
			elig := make([]Message, size)
			for i := range elig {
				elig[i] = Message{
					From:    ids.ProcID(gen.Intn(n) + 1),
					To:      ids.ProcID(gen.Intn(n) + 1),
					Tag:     tags[gen.Intn(4)/3], // long equal-tag runs, some switches
					Payload: i,
					SentAt:  now - 1,
				}
			}
			want := make([][]Message, n+1)
			for q := 1; q <= n; q++ {
				old := Message{From: 1, To: ids.ProcID(q), Tag: tags[0], Payload: -q, SentAt: 1, DeliveredAt: 2}
				sys.procs[q].inbox = []Message{old}
				want[q] = []Message{old}
			}
			sys.eligible = append([]Message(nil), elig...)
			sys.inflight.Store(int64(size))

			// The reference: per-message swap-remove on its own copy.
			ref := rand.New(rand.NewSource(seed))
			rest := append([]Message(nil), elig...)
			delivered, dropped := map[string]int64{}, map[string]int64{}
			for range min(k, size) {
				j := ref.Intn(len(rest))
				m := rest[j]
				rest[j] = rest[len(rest)-1]
				rest = rest[:len(rest)-1]
				m.DeliveredAt = now
				if m.To == crashed {
					dropped[m.Tag.String()]++
					continue
				}
				delivered[m.Tag.String()]++
				want[m.To] = append(want[m.To], m)
			}

			sys.deliverPhase(now)

			name := fmt.Sprintf("size=%d bandwidth=%d", size, k)
			for q := ids.ProcID(1); q <= n; q++ {
				p := sys.procs[q]
				if !reflect.DeepEqual(p.inbox, want[q]) {
					t.Fatalf("%s: inbox of %d diverges from per-message delivery", name, q)
				}
				if got := sys.inboxDue.has(q); got != (len(want[q]) > 1) {
					t.Errorf("%s: wake bit of %d = %v, want %v", name, q, got, !got)
				}
			}
			tail := sys.procs[crashed].inbox[1:cap(sys.procs[crashed].inbox)]
			for i := range tail {
				if tail[i] != (Message{}) {
					t.Fatalf("%s: dropped tail of the crashed inbox not zeroed at %d", name, i)
				}
			}
			if !reflect.DeepEqual(append([]Message{}, sys.eligible...), append([]Message{}, rest...)) {
				t.Fatalf("%s: eligible left after delivery diverges", name)
			}
			if got, want := sys.InFlight(), len(rest); got != want {
				t.Errorf("%s: in flight = %d, want %d", name, got, want)
			}
			snap := sys.Metrics().Snapshot()
			for _, tag := range tags {
				if snap.Delivered[tag.String()] != delivered[tag.String()] || snap.Dropped[tag.String()] != dropped[tag.String()] {
					t.Errorf("%s: tag %s delivered/dropped %d/%d, want %d/%d", name, tag,
						snap.Delivered[tag.String()], snap.Dropped[tag.String()],
						delivered[tag.String()], dropped[tag.String()])
				}
			}
			if got, want := sys.intn(1<<30+1), ref.Intn(1<<30+1); got != want {
				t.Errorf("%s: draw stream out of step after delivery: %d, want %d", name, got, want)
			}
			if size >= 64 && dropped[tags[0].String()]+dropped[tags[1].String()] == 0 {
				t.Fatalf("%s: nothing dropped at the crashed destination; the check is vacuous", name)
			}
		}
	}
}
