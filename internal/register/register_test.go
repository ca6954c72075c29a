package register

import (
	"fmt"
	"sync"
	"testing"

	"fdgrid/internal/ids"
	"fdgrid/internal/node"
	"fdgrid/internal/sim"
)

// The registers the tests use.
const (
	regX Reg = iota
	regC
	regR
	regNever
)

func TestMemoryStore(t *testing.T) {
	mem := NewMemory()
	v1, v2 := mem.View(1), mem.View(2)
	if got := v1.Read(2, regX); got != nil {
		t.Errorf("unwritten register = %v", got)
	}
	v1.Write(regX, int64(7))
	v2.Write(regX, int64(9))
	if got := v2.Read(1, regX); got != int64(7) {
		t.Errorf("Read(1,x) = %v", got)
	}
	if got := v1.Read(2, regX); got != int64(9) {
		t.Errorf("Read(2,x) = %v", got)
	}
	v1.Write(regX, ids.NewSet(3))
	if got := v2.Read(1, regX); !got.(ids.Set).Equal(ids.NewSet(3)) {
		t.Errorf("overwrite = %v", got)
	}
}

// TestMemoryStoreInterleaved: a Memory is run-token state — processes
// access it from their own goroutines, serialized only by the token
// handoffs, with no lock in the substrate. Eight simulated processes
// interleave writes and reads tick by tick; the -race CI job is what
// makes this test meaningful.
func TestMemoryStoreInterleaved(t *testing.T) {
	const n, iters = 8, 1000
	mem := NewMemory()
	sys := sim.MustNew(sim.Config{N: n, T: 0, Seed: 1, MaxSteps: 100_000})
	done := 0 // token-owned, like the registers themselves
	sys.SpawnAll(func(env *sim.Env) {
		v := mem.View(env.ID())
		for i := int64(0); i < iters; i++ {
			v.Write(regC, i)
			for q := 1; q <= n; q++ {
				v.Read(ids.ProcID(q), regC)
			}
			env.Step() // yield the token so the writes interleave
		}
		done++
	})
	rep := sys.Run(func() bool { return done == n })
	if !rep.StoppedEarly {
		t.Fatalf("run hit MaxSteps; %d/%d processes finished", done, n)
	}
	for p := 1; p <= n; p++ {
		if got := mem.View(1).Read(ids.ProcID(p), regC); got != int64(iters-1) {
			t.Errorf("final counter of %d = %v", p, got)
		}
	}
}

// TestHeartbeatPropagates: values written by one process become readable
// at the others.
func TestHeartbeatPropagates(t *testing.T) {
	cfg := sim.Config{N: 3, T: 1, Seed: 2, MaxSteps: 50_000, Bandwidth: 3}
	sys := sim.MustNew(cfg)
	type result struct {
		val any
	}
	var mu sync.Mutex
	got := map[ids.ProcID]result{}
	sys.SpawnAll(func(env *sim.Env) {
		hb := NewHeartbeat(env)
		nd := node.New(env, hb)
		if env.ID() == 1 {
			hb.Write(regX, int64(1))
			hb.Write(regX, int64(42)) // newer overwrites
			if v := hb.Read(1, regX); v != int64(42) {
				t.Errorf("own read = %v", v)
			}
			nd.RunForever()
		}
		nd.WaitUntil(func() bool { return hb.Read(1, regX) == int64(42) }, nil)
		mu.Lock()
		got[env.ID()] = result{val: hb.Read(1, regX)}
		mu.Unlock()
		nd.RunForever()
	})
	sys.Run(func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 2
	})
	mu.Lock()
	defer mu.Unlock()
	for p, r := range got {
		if r.val != int64(42) {
			t.Errorf("process %v read %v", p, r.val)
		}
	}
}

// TestHeartbeatStaleOrderIgnored: an older sequence number never
// overwrites a newer value, whatever the delivery order.
func TestHeartbeatStaleOrderIgnored(t *testing.T) {
	cfg := sim.Config{N: 2, T: 0, Seed: 3, MaxSteps: 50_000}
	sys := sim.MustNew(cfg)
	var final any
	var mu sync.Mutex
	sys.Spawn(1, func(env *sim.Env) {
		hb := NewHeartbeat(env)
		nd := node.New(env, hb)
		for i := int64(1); i <= 20; i++ {
			hb.Write(regX, i)
		}
		nd.RunForever()
	})
	sys.Spawn(2, func(env *sim.Env) {
		hb := NewHeartbeat(env)
		nd := node.New(env, hb)
		nd.WaitUntil(func() bool { return hb.Read(1, regX) == int64(20) }, nil)
		// All 20 updates were sent before we saw the last one; whatever
		// arrives late must not regress the cache.
		nd.WaitTill(env.Now() + 50)
		mu.Lock()
		final = hb.Read(1, regX)
		mu.Unlock()
		nd.RunForever()
	})
	sys.Run(func() bool { mu.Lock(); defer mu.Unlock(); return final != nil })
	mu.Lock()
	defer mu.Unlock()
	if final != int64(20) {
		t.Errorf("final = %v, want 20", final)
	}
}

// TestABDReadsLatestWrite: basic write→read across processes.
func TestABDReadsLatestWrite(t *testing.T) {
	cfg := sim.Config{N: 5, T: 2, Seed: 4, MaxSteps: 200_000, Bandwidth: 5}
	sys := sim.MustNew(cfg)
	var mu sync.Mutex
	reads := map[ids.ProcID]any{}
	sys.SpawnAll(func(env *sim.Env) {
		abd := NewABD(env)
		nd := node.New(env, abd)
		abd.Bind(nd)
		if env.ID() == 1 {
			abd.Write(regR, int64(5))
			abd.Write(regR, int64(6))
			mu.Lock()
			reads[1] = int64(6)
			mu.Unlock()
			nd.RunForever()
		}
		// Readers poll until the writer's value is visible.
		for {
			v := abd.Read(1, regR)
			if v == int64(6) {
				mu.Lock()
				reads[env.ID()] = v
				mu.Unlock()
				nd.RunForever()
			}
			nd.WaitTill(env.Now() + 1)
		}
	})
	sys.Run(func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(reads) == 5
	})
	mu.Lock()
	defer mu.Unlock()
	if len(reads) != 5 {
		t.Fatalf("only %d processes read the value", len(reads))
	}
}

// TestABDUnwrittenReadsNil.
func TestABDUnwrittenReadsNil(t *testing.T) {
	cfg := sim.Config{N: 3, T: 1, Seed: 5, MaxSteps: 100_000, Bandwidth: 3}
	sys := sim.MustNew(cfg)
	var mu sync.Mutex
	var done bool
	sys.SpawnAll(func(env *sim.Env) {
		abd := NewABD(env)
		nd := node.New(env, abd)
		abd.Bind(nd)
		if env.ID() == 2 {
			if v := abd.Read(3, regNever); v != nil {
				t.Errorf("unwritten read = %v", v)
			}
			mu.Lock()
			done = true
			mu.Unlock()
		}
		nd.RunForever()
	})
	sys.Run(func() bool { mu.Lock(); defer mu.Unlock(); return done })
	mu.Lock()
	defer mu.Unlock()
	if !done {
		t.Fatal("read never completed")
	}
}

// TestABDToleratesCrashMinority: operations complete despite t crashed
// replicas.
func TestABDToleratesCrashMinority(t *testing.T) {
	cfg := sim.Config{
		N: 5, T: 2, Seed: 6, MaxSteps: 300_000, Bandwidth: 5,
		Crashes: map[ids.ProcID]sim.Time{4: 0, 5: 0},
	}
	sys := sim.MustNew(cfg)
	var mu sync.Mutex
	var got any
	sys.SpawnAll(func(env *sim.Env) {
		abd := NewABD(env)
		nd := node.New(env, abd)
		abd.Bind(nd)
		switch env.ID() {
		case 1:
			abd.Write(regR, int64(11))
		case 2:
			for {
				if v := abd.Read(1, regR); v == int64(11) {
					mu.Lock()
					got = v
					mu.Unlock()
					break
				}
				nd.WaitTill(env.Now() + 1)
			}
		}
		nd.RunForever()
	})
	sys.Run(func() bool { mu.Lock(); defer mu.Unlock(); return got != nil })
	mu.Lock()
	defer mu.Unlock()
	if got != int64(11) {
		t.Fatalf("got %v", got)
	}
}

func TestABDRequiresMajority(t *testing.T) {
	sys := sim.MustNew(sim.Config{N: 4, T: 2, Seed: 1, MaxSteps: 100})
	defer func() {
		if recover() == nil {
			t.Error("NewABD with t ≥ n/2 did not panic")
		}
	}()
	NewABD(sys.Env(1))
}

// TestABDLateRepliesIgnored: with n = 5 and every replica live, each
// phase completes on a quorum of 3 and the other 2 replies arrive late.
// A late ack or read reply of a finished phase must not count toward the
// next one, and the layer's state must not grow with the number of
// operations: ABD keeps one phase in progress, not a record per
// operation. Process 1 alternates writes and reads of its own register,
// pausing between operations so the late replies land, and checks the
// phase state as each operation returns and again after the pause.
func TestABDLateRepliesIgnored(t *testing.T) {
	const ops = 200
	cfg := sim.Config{N: 5, T: 2, Seed: 9, MaxSteps: 500_000, Bandwidth: 5}
	sys := sim.MustNew(cfg)
	var a1 *ABD
	done := false // token-owned
	idle := func(a *ABD) error {
		if a.op != 0 || a.replies != 0 && a.replies != 3 || a.acked.Size() > 3 {
			return fmt.Errorf("phase state op=%d replies=%d acked=%s with no operation in progress", a.op, a.replies, a.acked)
		}
		return nil
	}
	sys.SpawnAll(func(env *sim.Env) {
		abd := NewABD(env)
		nd := node.New(env, abd)
		abd.Bind(nd)
		if env.ID() != 1 {
			nd.RunForever()
		}
		a1 = abd
		for i := int64(1); i <= ops; i++ {
			abd.Write(regX, i)
			if err := idle(abd); err != nil {
				t.Fatalf("after write %d: %v", i, err)
			}
			nd.WaitTill(env.Now() + 40) // the late acks arrive
			if err := idle(abd); err != nil {
				t.Fatalf("after write %d and a pause: %v", i, err)
			}
			if v := abd.Read(1, regX); v != i {
				t.Fatalf("read %d after writing %d", v, i)
			}
			nd.WaitTill(env.Now() + 40) // the late replies and acks arrive
			if err := idle(abd); err != nil {
				t.Fatalf("after read %d and a pause: %v", i, err)
			}
		}
		done = true
		nd.RunForever()
	})
	rep := sys.Run(func() bool { return done })
	if !rep.StoppedEarly {
		t.Fatal("process 1 did not finish its operations")
	}
	// Three phases per write-and-read: write, read, write-back.
	if got, want := a1.nextOp, int64(3*ops); got != want {
		t.Errorf("opened %d phases, want %d", got, want)
	}
	if len(a1.replicas) != 2 || len(a1.replicas[1]) != 1 {
		t.Errorf("replica slots grew to %d owners, %d registers of owner 1", len(a1.replicas), len(a1.replicas[1]))
	}
	sent := rep.Messages.Sent
	if sent["abd.wack"] != 5*ops || sent["abd.rval"] != 5*ops || sent["abd.wback"] != 5*ops {
		t.Errorf("replies sent %v: every replica answers every phase", sent)
	}
}

// TestABDStaleReplyDropped feeds a replica reply and an ack carrying a
// finished phase's op straight to Handle while a later phase is in
// progress: neither counts.
func TestABDStaleReplyDropped(t *testing.T) {
	sys := sim.MustNew(sim.Config{N: 5, T: 2, Seed: 1, MaxSteps: 10})
	a := NewABD(sys.Env(1))
	a.begin()
	stale := a.begin() - 1
	for from := ids.ProcID(1); from <= 5; from++ {
		a.Handle(&sim.Message{From: from, Tag: tagABDReadVal, Payload: &abdReadVal{Op: stale, TS: 7, Val: int64(7)}})
		a.Handle(&sim.Message{From: from, Tag: tagABDWriteAck, Payload: &abdAck{Op: stale}})
	}
	if a.replies != 0 || !a.acked.IsEmpty() || a.best.ts != 0 {
		t.Errorf("stale replies counted: replies=%d acked=%s best=%+v", a.replies, a.acked, a.best)
	}
	if a.replyQuorum() || a.ackQuorum() {
		t.Error("a quorum reached on stale replies alone")
	}
}
