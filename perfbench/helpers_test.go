package main

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"
	"testing/iotest"
	"time"

	"fdgrid/internal/dispatch"
	"fdgrid/internal/sweep"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false}, // even the median leaves only 9 beyond it
		{20, 50, true},
		{99, 50, true},  // p90 leaves 9
		{100, 90, true}, // p90 leaves exactly 10
		{200, 95, true},
		{293, 95, true}, // the suite: p99 would leave 2
		{664, 95, true}, // paper: p99 would leave 6
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok && tc.n-rank(got, tc.n) < minBeyondTail {
			t.Errorf("n=%d: p%v leaves %d samples beyond it", tc.n, got, tc.n-rank(got, tc.n))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 95: 95, 99: 99, 99.9: 100} {
		if got := percentile(s, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	for _, tc := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{Start: 10, End: 20}, {Start: 30, End: 40}}, 80},
		{"overlapping pool workers", []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 35, End: 50}}, 60},
		{"nested", []span{{Start: 10, End: 60}, {Start: 20, End: 30}}, 50},
		{"identical", []span{{Start: 10, End: 20}, {Start: 10, End: 20}}, 90},
		{"sticking out", []span{{Start: -10, End: 5}, {Start: 90, End: 120}}, 85},
		{"outside", []span{{Start: 150, End: 200}}, 100},
		{"covering", []span{{Start: 0, End: 60}, {Start: 50, End: 100}}, 0},
		{"unsorted", []span{{Start: 70, End: 80}, {Start: 10, End: 20}, {Start: 15, End: 25}}, 75},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestBarrierIdle(t *testing.T) {
	// Matrix 0: 10 ns wall on a pool of 2 with 15 ns of cell work leaves 5
	// idle; matrix 1 keeps both workers busy; matrix 2 is one 7 ns cell.
	walls := []int64{10, 20, 7}
	busy := []int64{15, 40, 7}
	if got := barrierIdle(walls, busy, 2); got != 5+0+7 {
		t.Errorf("idle = %d, want 12", got)
	}
	// Busy beyond wall × pool (timer skew) never reads as negative idle.
	if got := barrierIdle([]int64{10}, []int64{25}, 2); got != 0 {
		t.Errorf("idle = %d, want 0", got)
	}
}

// rwc joins a reader and a writer into the ReadWriteCloser a Transport
// carries.
type rwc struct {
	io.Reader
	io.Writer
}

func (rwc) Close() error { return nil }

func frames(t *testing.T, msgs ...*dispatch.Msg) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, m := range msgs {
		if err := dispatch.WriteFrame(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestCountingRW(t *testing.T) {
	hello := frames(t, &dispatch.Msg{Kind: dispatch.KindHello, Worker: "w"})
	rest := frames(t,
		&dispatch.Msg{Kind: dispatch.KindHeartbeat, Worker: "w"},
		&dispatch.Msg{Kind: dispatch.KindCell, UnitID: "M#0/2", Cell: &sweep.CellResult{Index: 3, Verdict: sweep.Pass}},
		&dispatch.Msg{Kind: dispatch.KindDone, UnitID: "M#0/2"},
	)
	for _, traced := range []bool{false, true} {
		var log *spanLog
		if traced {
			log = newSpanLog()
		}
		var sink bytes.Buffer
		// Reads arrive one byte at a time, so every frame header and
		// payload is split across calls.
		c := newCountingRW("w", rwc{Reader: iotest.OneByteReader(bytes.NewReader(rest)), Writer: &sink}, hello, log)

		// The dispatcher's view of the stream is unchanged: the replayed
		// hello, then the worker's frames.
		var kinds []string
		for {
			m, err := dispatch.ReadFrame(c)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("traced=%t: ReadFrame: %v", traced, err)
			}
			kinds = append(kinds, m.Kind)
		}
		if want := []string{"hello", "heartbeat", "cell", "done"}; !equalStrings(kinds, want) {
			t.Errorf("traced=%t: read kinds %v, want %v", traced, kinds, want)
		}
		if got, want := c.in.frames.Load(), int64(4); got != want {
			t.Errorf("traced=%t: frames in = %d, want %d", traced, got, want)
		}
		if got, want := c.in.bytes.Load(), int64(len(hello)+len(rest)); got != want {
			t.Errorf("traced=%t: bytes in = %d, want %d", traced, got, want)
		}

		out := frames(t, &dispatch.Msg{Kind: dispatch.KindUnit, Unit: &dispatch.Unit{ID: "M#0/2"}}, &dispatch.Msg{Kind: dispatch.KindShutdown})
		for _, m := range []*dispatch.Msg{{Kind: dispatch.KindUnit, Unit: &dispatch.Unit{ID: "M#0/2"}}, {Kind: dispatch.KindShutdown}} {
			if err := dispatch.WriteFrame(c, m); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(sink.Bytes(), out) {
			t.Errorf("traced=%t: written bytes differ from the frames", traced)
		}
		if got := c.out.frames.Load(); got != 2 {
			t.Errorf("traced=%t: frames out = %d, want 2", traced, got)
		}
		if got := c.out.bytes.Load(); got != int64(len(out)) {
			t.Errorf("traced=%t: bytes out = %d, want %d", traced, got, len(out))
		}

		events := c.frameEvents()
		if !traced {
			if len(events) != 0 || len(log.snapshot()) != 0 {
				t.Errorf("untraced wrapper kept %d frames", len(events))
			}
			continue
		}
		if len(events) != 6 {
			t.Fatalf("kept %d frames, want 6", len(events))
		}
		var first dispatch.Msg
		if err := json.Unmarshal(events[0].Payload, &first); err != nil || first.Kind != dispatch.KindHello || !events[0].In {
			t.Errorf("first kept frame = %+v (%v), want the inbound hello", first, err)
		}
		if events[5].In {
			t.Errorf("last kept frame should be outbound")
		}
		if n := len(log.snapshot()); n < len(rest) {
			t.Errorf("logged %d read/write spans, want one per call", n)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestWorkerCells(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	payload := func(m *dispatch.Msg) []byte {
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	unit := func(id string) []byte {
		return payload(&dispatch.Msg{Kind: dispatch.KindUnit, Unit: &dispatch.Unit{ID: id}})
	}
	cell := func(id string) []byte {
		return payload(&dispatch.Msg{Kind: dispatch.KindCell, UnitID: id, Cell: &sweep.CellResult{}})
	}
	events := []frameEvent{
		{In: true, At: at(0), Payload: payload(&dispatch.Msg{Kind: dispatch.KindHello})},
		{In: true, At: at(1), Payload: cell("stray#0/1")}, // before any unit: not timed
		{In: false, At: at(10), Payload: unit("F1-grid#0/4")},
		{In: true, At: at(13), Payload: payload(&dispatch.Msg{Kind: dispatch.KindHeartbeat})},
		{In: true, At: at(15), Payload: cell("F1-grid#0/4")},
		{In: true, At: at(22), Payload: cell("F1-grid#0/4")},
		{In: true, At: at(23), Payload: payload(&dispatch.Msg{Kind: dispatch.KindDone, UnitID: "F1-grid#0/4"})},
		{In: true, At: at(40), Payload: cell("SCALE-kset#1/4")}, // logged before the unit it follows
		{In: false, At: at(30), Payload: unit("SCALE-kset#1/4")},
	}
	got := workerCells(events)
	want := []fleetCell{{"F1-grid", 0.005}, {"F1-grid", 0.007}, {"SCALE-kset", 0.010}}
	if len(got) != len(want) {
		t.Fatalf("cells = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i].matrix != want[i].matrix || !near(got[i].seconds, want[i].seconds) {
			t.Errorf("cell %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func near(a, b float64) bool { return a-b < 1e-12 && b-a < 1e-12 }

func TestWorkerSkew(t *testing.T) {
	for _, tc := range []struct {
		byWorker map[string]int
		workers  int
		want     float64
	}{
		{map[string]int{"w0:sub0": 150, "w1:sub1": 143}, 2, 150.0 / 143},
		{map[string]int{"w0:sub0": 100, "w1:sub1": 100, "local": 93}, 2, 1}, // fallback cells are not a worker's
		{map[string]int{"w0:sub0": 293}, 2, 293},                            // w1 delivered nothing
	} {
		if got := workerSkew(&fleetObs{stats: dispatch.Stats{CellsByWorker: tc.byWorker}, workers: tc.workers}); !near(got, tc.want) {
			t.Errorf("skew of %v over %d workers = %v, want %v", tc.byWorker, tc.workers, got, tc.want)
		}
	}
}

func TestWorkloadSpecShiftsSeeds(t *testing.T) {
	suite := []sweep.Matrix{
		{Name: "F1-grid", Protocol: "kset-grid", Seeds: []int64{0, 1, 2}, Sizes: []sweep.Size{{N: 5, T: 2}}},
		{Name: "SCALE-kset", Protocol: "kset-omega", Seeds: []int64{0, 1}, Sizes: []sweep.Size{{N: 64, T: 6}}},
	}
	paper, _ := workloadByName("paper")
	spec, protocols, err := workloadSpec(suite, paper, 7)
	if err != nil {
		t.Fatal(err)
	}
	var ms []sweep.Matrix
	if err := json.Unmarshal(spec, &ms); err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].Name != "F1-grid" {
		t.Fatalf("paper selected %+v, want F1-grid only", ms)
	}
	if got := ms[0].Seeds; len(got) != 3 || got[0] != 7000 || got[2] != 7002 {
		t.Errorf("seeds = %v, want [7000 7001 7002]", got)
	}
	if suite[0].Seeds[0] != 0 {
		t.Errorf("workloadSpec changed the exported suite's seeds")
	}
	if !equalStrings(protocols, []string{"kset-grid", "kset-omega"}) {
		t.Errorf("protocols = %v, want both suite protocols", protocols)
	}
}
