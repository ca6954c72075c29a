package sim

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
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

// TestBatchedDeliveryMetricsExact checks that the delivery loop's
// run-length counts keep the per-tag counters per-message-exact: a run
// whose copies share broadcast records reports the same MetricsSnapshot
// as an equivalent run sending every copy individually — including
// drops at a crashed receiver.
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

// refNet is the plain network the delivery phase stands for: every
// copy a Message of its own, in one eligible list and in per-release
// held lists, delivered by per-message swap-remove — draw j =
// Intn(len(eligible)), deliver eligible[j], move the last message into
// its place, Bandwidth times — on rand.New(rand.NewSource(Seed)).
type refNet struct {
	cfg      Config
	rng      *rand.Rand
	eligible []Message
	held     map[Time][]Message
	inbox    [][]Message // index 1..N
	due      []bool      // index 1..N: a message was delivered
	sent     map[string]int64
	landed   map[string]int64
	dropped  map[string]int64
}

func newRefNet(cfg Config) *refNet {
	return &refNet{
		cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)),
		held:  map[Time][]Message{},
		inbox: make([][]Message, cfg.N+1), due: make([]bool, cfg.N+1),
		sent: map[string]int64{}, landed: map[string]int64{}, dropped: map[string]int64{},
	}
}

func (r *refNet) crashed(p ids.ProcID, at Time) bool {
	t, ok := r.cfg.Crashes[p]
	return ok && t <= at
}

// send accepts one copy per member of dests, ascending, each held until
// the latest Until of the holds covering it.
func (r *refNet) send(from ids.ProcID, dests ids.Set, tag Tag, payload any, at Time) {
	if r.crashed(from, at) {
		return
	}
	dests.ForEachIn(r.cfg.N, func(to ids.ProcID) bool {
		m := Message{From: from, To: to, Tag: tag, Payload: payload, SentAt: at}
		r.sent[tag.String()]++
		var until Time
		for _, h := range r.cfg.Holds {
			if h.From.Contains(from) && h.To.Contains(to) && (h.Since == 0 || h.Since <= at && at < h.Until) {
				until = max(until, h.Until)
			}
		}
		if until <= at {
			r.eligible = append(r.eligible, m)
		} else {
			r.held[until] = append(r.held[until], m)
		}
		return true
	})
}

// deliver releases the due holds in release order and delivers.
func (r *refNet) deliver(now Time) {
	for _, t := range slices.Sorted(maps.Keys(r.held)) {
		if t <= now {
			r.eligible = append(r.eligible, r.held[t]...)
			delete(r.held, t)
		}
	}
	for range min(r.cfg.bandwidth(), len(r.eligible)) {
		j := r.rng.Intn(len(r.eligible))
		m := r.eligible[j]
		r.eligible[j] = r.eligible[len(r.eligible)-1]
		r.eligible = r.eligible[:len(r.eligible)-1]
		m.DeliveredAt = now
		if r.crashed(m.To, now) {
			r.dropped[m.Tag.String()]++
			continue
		}
		r.landed[m.Tag.String()]++
		r.inbox[m.To] = append(r.inbox[m.To], m)
		r.due[m.To] = true
	}
}

// netSend makes the same send on the system at time at: Send for one
// destination, Broadcast for all, Multicast otherwise.
func netSend(s *System, from ids.ProcID, dests ids.Set, tag Tag, payload any, at Time) {
	s.now.Store(int64(at))
	switch {
	case dests.CountIn(s.cfg.N) == 1:
		s.send(from, dests.Min(), tag, payload)
	case dests.Equal(ids.FullSet(s.cfg.N)):
		s.broadcast(from, tag, payload)
	default:
		s.multicast(from, dests, tag, payload)
	}
}

// copies expands the system's queued entries into the messages they
// stand for.
func copies(s *System, es []entry) []Message {
	out := make([]Message, len(es))
	for i, e := range es {
		r := s.recs[e.rec]
		out[i] = Message{From: r.from, To: ids.ProcID(e.to), Tag: r.tag, Payload: r.payload, SentAt: r.sentAt}
	}
	return out
}

// checkNet fails t unless the system's network matches the reference:
// every inbox, the eligible list and the held buckets in order, the
// wake bits, the in-flight count and the per-tag counters; each send
// record's live count equals the entries naming it, and a record with
// none is zeroed and on the free list; dropped inbox tails are zeroed.
func checkNet(t testing.TB, name string, s *System, r *refNet) {
	t.Helper()
	inFlight := len(r.eligible)
	for q := ids.ProcID(1); int(q) <= s.cfg.N; q++ {
		p := s.procs[q]
		if !slices.Equal(p.inbox, r.inbox[q]) {
			t.Fatalf("%s: inbox of %d diverges from per-message delivery:\n got %v\nwant %v", name, q, p.inbox, r.inbox[q])
		}
		if got := s.inboxDue.has(q); got != r.due[q] {
			t.Fatalf("%s: wake bit of %d = %v, want %v", name, q, got, !got)
		}
		for i, m := range p.inbox[len(p.inbox):cap(p.inbox)] {
			if m != (Message{}) {
				t.Fatalf("%s: inbox tail of %d not zeroed at %d", name, q, i)
			}
		}
	}
	if got := copies(s, s.eligible); !slices.Equal(got, r.eligible) {
		t.Fatalf("%s: eligible diverges:\n got %v\nwant %v", name, got, r.eligible)
	}
	if got, want := s.heldTimes, slices.Sorted(maps.Keys(r.held)); !slices.Equal(got, want) {
		t.Fatalf("%s: hold release times %v, want %v", name, got, want)
	}
	refs := make([]int32, len(s.recs))
	for _, e := range s.eligible {
		refs[e.rec]++
	}
	for _, at := range s.heldTimes {
		if got := copies(s, s.held[at]); !slices.Equal(got, r.held[at]) {
			t.Fatalf("%s: bucket %d diverges:\n got %v\nwant %v", name, at, got, r.held[at])
		}
		for _, e := range s.held[at] {
			refs[e.rec]++
		}
		inFlight += len(r.held[at])
	}
	free := make([]bool, len(s.recs))
	for _, i := range s.recFree {
		if free[i] {
			t.Fatalf("%s: record %d on the free list twice", name, i)
		}
		free[i] = true
	}
	for i, rec := range s.recs {
		if rec.live != refs[i] || free[i] != (refs[i] == 0) {
			t.Fatalf("%s: record %d has live %d (free %v), %d copies in flight", name, i, rec.live, free[i], refs[i])
		}
		if refs[i] == 0 && rec != (sendRec{}) {
			t.Fatalf("%s: record %d not zeroed after its last copy: %+v", name, i, rec)
		}
	}
	if got := s.InFlight(); got != inFlight {
		t.Fatalf("%s: in flight = %d, want %d", name, got, inFlight)
	}
	snap := s.Metrics().Snapshot()
	for _, c := range []struct {
		kind      string
		got, want map[string]int64
	}{{"sent", snap.Sent, r.sent}, {"delivered", snap.Delivered, r.landed}, {"dropped", snap.Dropped, r.dropped}} {
		for tag, n := range c.want {
			if c.got[tag] != n {
				t.Fatalf("%s: %s[%s] = %d, want %d", name, c.kind, tag, c.got[tag], n)
			}
		}
		for tag, n := range c.got {
			if n != c.want[tag] {
				t.Fatalf("%s: %s[%s] = %d, want %d", name, c.kind, tag, n, c.want[tag])
			}
		}
	}
}

// TestDeliverPhaseMatchesPerMessage pins the delivery phase to the
// plain per-message swap-remove it stands for (refNet). Sends, each
// made through Send, Broadcast or Multicast so copies share records,
// queue size copies; the sizes span small, cache-resident ticks and
// backlogs past 16384 copies, under full and half bandwidth. Every
// destination starts with a message already in its inbox, and one
// destination has crashed: its copies are dropped, leaving its inbox as
// it was. A second round of sends then reuses the records the first
// freed. The storm row is n broadcasts, tags alternating, at bandwidth
// n, whose crashed destination crashes at the delivery tick itself:
// the tags of the copies one phase settles change often, so the
// delivered counts move in short runs between the inline drops (its
// seed is one whose first phase selects copies for the crashed
// destination, which the row requires). After
// each delivery phase, inboxes, the leftover queue, records, in-flight
// count, wake bits and per-tag counters must match the reference, and
// at the end so must the draw stream's position.
func TestDeliverPhaseMatchesPerMessage(t *testing.T) {
	const (
		n       = 16
		crashed = ids.ProcID(5)
		now     = Time(7)
	)
	type row struct {
		size, bandwidth int
		seed            int64
		crashAt         Time
		storm           bool
	}
	var rows []row
	for _, size := range []int{1, 7, 64, 4096, 20000} {
		rows = append(rows, row{size, size, int64(size*31 + size), 3, false})
		if size > 1 {
			rows = append(rows, row{size, size / 2, int64(size*31 + size/2), 3, false})
		}
	}
	rows = append(rows, row{n * n, n, 1, now, true})
	tags := []Tag{Intern("batch.ref.a"), Intern("batch.ref.b")}
	for _, rw := range rows {
		name := fmt.Sprintf("size=%d bandwidth=%d crash=%d storm=%v", rw.size, rw.bandwidth, rw.crashAt, rw.storm)
		cfg := Config{
			N: n, T: 1, Seed: rw.seed, MaxSteps: 100, Bandwidth: rw.bandwidth,
			Crashes: map[ids.ProcID]Time{crashed: rw.crashAt},
		}
		sys, ref := MustNew(cfg), newRefNet(cfg)
		for q := 1; q <= n; q++ {
			old := Message{From: 1, To: ids.ProcID(q), Tag: tags[0], Payload: -q, SentAt: 1, DeliveredAt: 2}
			sys.procs[q].inbox = []Message{old}
			ref.inbox[q] = []Message{old}
		}
		gen := rand.New(rand.NewSource(cfg.Seed + 1))
		payload := 0
		// queue sends size copies at time at from live senders: a
		// broadcast, a multicast to a random set or a single send,
		// long equal-tag runs with some switches; in a storm, a
		// broadcast from each sender in turn, tags alternating.
		queue := func(size int, at Time) {
			for sender := 0; size > 0; sender++ {
				from := ids.ProcID(gen.Intn(n) + 1)
				if rw.storm {
					from = ids.ProcID(sender%n + 1)
				}
				if from == crashed {
					continue
				}
				var dests ids.Set
				tag := tags[gen.Intn(4)/3]
				switch {
				case rw.storm:
					dests, tag = ids.FullSet(n), tags[sender%2]
				case size >= n && gen.Intn(3) == 0:
					dests = ids.FullSet(n)
				default:
					for c := 1 + gen.Intn(min(size, n)); dests.Size() < c; {
						dests = dests.Add(ids.ProcID(gen.Intn(n) + 1))
					}
				}
				payload++
				netSend(sys, from, dests, tag, payload, at)
				ref.send(from, dests, tag, payload, at)
				size -= dests.Size()
			}
		}
		queue(rw.size, now)
		sys.deliverPhase(now)
		ref.deliver(now)
		checkNet(t, name+" round 1", sys, ref)
		if rw.storm && ref.dropped[tags[0].String()]+ref.dropped[tags[1].String()] == 0 {
			t.Fatalf("%s: nothing dropped at the crash tick; the check is vacuous", name)
		}
		queue(rw.size/4+1, now+1)
		sys.deliverPhase(now + 1)
		ref.deliver(now + 1)
		checkNet(t, name+" round 2", sys, ref)
		if got, want := sys.intn(1<<30+1), ref.rng.Intn(1<<30+1); got != want {
			t.Errorf("%s: draw stream out of step after delivery: %d, want %d", name, got, want)
		}
		if rw.size >= 64 && ref.dropped[tags[0].String()]+ref.dropped[tags[1].String()] == 0 {
			t.Fatalf("%s: nothing dropped at the crashed destination; the check is vacuous", name)
		}
	}
}

// FuzzDeliverMatchesPerMessage drives the network with a script of
// rounds, each a few sends (Send, Broadcast or Multicast, from any
// process, crashed ones included) then one delivery phase, under a
// fuzzed n, bandwidth, crash set and scripted holds, windowed ones
// included, and checks the system against refNet after every round.
func FuzzDeliverMatchesPerMessage(f *testing.F) {
	f.Add(int64(1), []byte{3, 1, 0, 0, 2, 1, 0, 4, 0, 1, 2, 1, 1, 9, 9, 3, 2, 0, 7})
	f.Add(int64(7), []byte{15, 2, 1, 3, 0, 2, 1, 5, 200, 255, 0, 1, 4, 1, 9, 1, 0, 6, 2, 2, 7, 1, 4, 2, 8, 0, 0, 1, 1, 3, 0})
	// n = 8, bandwidth 6, process 3 crashed at 5; a hold from {1..4}
	// to {5..8} until 7 and a window holding 8 → 1 over [4, 13);
	// broadcasts, sends and multicasts through both.
	f.Add(int64(3), []byte{7, 3, 5, 1, 1, 0, 5, 1, 1, 1, 1, 1, 2, 15, 0, 240, 0, 6, 0, 128, 0, 1, 0, 3, 1, 8,
		0, 4, 0, 1, 0, 7, 1, 1, 4, 0, 0, 0, 7, 2, 255, 0, 1, 2, 2, 7, 1, 0, 1, 1, 1, 1, 1, 7, 1, 0,
		2, 1, 0, 1, 1, 0, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0})
	f.Add(int64(20260807), []byte{9, 3, 0, 0, 0, 2, 1, 255, 15, 0, 0, 2, 2, 3, 1, 6, 3, 0, 0, 4, 5, 1, 2, 2, 255, 255, 0, 3, 1, 1, 2, 1, 0})
	// n = 6, bandwidth n, process 3 crashed at 3, no holds: at tick 1
	// processes 1, 2, 4 and 5 broadcast, tags alternating, and six of the
	// 24 copies land; the phase at tick 3, the crash tick itself, settles
	// six more, three of them copies for process 3, which it drops.
	f.Add(int64(5), []byte{5, 1, 1, 1, 0, 3, 1, 1, 1, 0, 0, 4, 0, 1, 0, 1, 1, 1, 3, 1, 0, 4, 1, 1, 1, 0, 0, 0, 0, 0})
	tags := []Tag{Intern("batch.fuzz.a"), Intern("batch.fuzz.b")}
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		next := func() int {
			if len(script) == 0 {
				return 0
			}
			b := script[0]
			script = script[1:]
			return int(b)
		}
		set := func(n int) ids.Set { // two script bytes as a member mask
			var s ids.Set
			mask := next() | next()<<8
			for q := 1; q <= n && q <= 16; q++ {
				if mask&(1<<(q-1)) != 0 {
					s = s.Add(ids.ProcID(q))
				}
			}
			return s
		}
		n := 1 + next()%20
		cfg := Config{N: n, T: n - 1, Seed: seed, MaxSteps: 1_000, Crashes: map[ids.ProcID]Time{}}
		switch next() % 4 {
		case 0:
			cfg.Bandwidth = 1
		case 1:
			cfg.Bandwidth = n
		case 2:
			cfg.Bandwidth = n * n
		default:
			cfg.Bandwidth = 1 + next()%(2*n)
		}
		for q := 1; q <= n && len(cfg.Crashes) < n-1; q++ {
			if next()%4 == 0 {
				cfg.Crashes[ids.ProcID(q)] = Time(next() % 12)
			}
		}
		for range next() % 3 {
			h := Hold{From: set(n), To: set(n), Until: Time(1 + next()%10)}
			if next()%2 == 1 {
				h.Since, h.Until = h.Until, h.Until+Time(1+next()%10)
			}
			cfg.Holds = append(cfg.Holds, h)
		}
		sys, ref := MustNew(cfg), newRefNet(cfg)
		payload := 0
		for at, round := Time(1), 0; len(script) > 0 && round < 64; round++ {
			at += Time(next() % 3)
			for range next() % 5 {
				from := ids.ProcID(1 + next()%n)
				var dests ids.Set
				switch next() % 3 {
				case 0:
					dests = ids.NewSet(ids.ProcID(1 + next()%n))
				case 1:
					dests = ids.FullSet(n)
				default:
					if dests = set(n); dests.IsEmpty() {
						continue
					}
				}
				tag := tags[next()%2]
				payload++
				netSend(sys, from, dests, tag, payload, at)
				ref.send(from, dests, tag, payload, at)
			}
			sys.deliverPhase(at)
			ref.deliver(at)
			checkNet(t, fmt.Sprintf("round %d at %d", round, at), sys, ref)
			at++
		}
		if got, want := sys.intn(1<<30+1), ref.rng.Intn(1<<30+1); got != want {
			t.Fatalf("draw stream out of step: %d, want %d", got, want)
		}
	})
}
