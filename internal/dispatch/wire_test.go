package dispatch

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"fdgrid/internal/sweep"
)

func TestFrameRoundTrip(t *testing.T) {
	msgs := []*Msg{
		{Kind: KindHello, Worker: "w0"},
		{Kind: KindHeartbeat, Worker: "w0"},
		{Kind: KindUnit, Unit: &Unit{
			ID:         "m#0/2",
			Matrix:     sweep.Matrix{Name: "m", Protocol: "kset-omega", Seeds: []int64{0}, Sizes: []sweep.Size{{N: 5, T: 2}}},
			Shard:      sweep.Shard{Index: 0, Count: 2},
			TotalCells: 4,
		}},
		{Kind: KindCell, UnitID: "m#0/2", Cell: &sweep.CellResult{Index: 2, Verdict: sweep.Pass, Steps: 123}},
		{Kind: KindDone, UnitID: "m#0/2"},
		{Kind: KindError, UnitID: "m#0/2", Detail: "no runner"},
		{Kind: KindShutdown},
	}
	var buf bytes.Buffer
	for _, m := range msgs {
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range msgs {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Kind != want.Kind || got.UnitID != want.UnitID || got.Worker != want.Worker {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
		if want.Cell != nil && (got.Cell == nil || got.Cell.Index != want.Cell.Index || got.Cell.Steps != want.Cell.Steps) {
			t.Fatalf("cell did not survive the wire: %+v", got.Cell)
		}
		if want.Unit != nil && (got.Unit == nil || got.Unit.ID != want.Unit.ID || got.Unit.Matrix.Name != want.Unit.Matrix.Name) {
			t.Fatalf("unit did not survive the wire: %+v", got.Unit)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("empty stream: err=%v, want io.EOF", err)
	}
}

func TestFrameCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Msg{Kind: KindHeartbeat}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-1] ^= 0xFF // flip a payload byte
	var ce *ErrCorruptFrame
	if _, err := ReadFrame(bytes.NewReader(raw)); !errors.As(err, &ce) {
		t.Fatalf("corrupted frame read as %v, want ErrCorruptFrame", err)
	}
}

func TestFrameTruncationAndOversize(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Msg{Kind: KindHeartbeat}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadFrame(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated payload read cleanly")
	}
	if _, err := ReadFrame(bytes.NewReader(trunc[:5])); err == nil {
		t.Fatal("truncated header read cleanly")
	}

	var huge [frameHeader]byte
	binary.BigEndian.PutUint32(huge[0:4], MaxFrame+1)
	if _, err := ReadFrame(bytes.NewReader(huge[:])); err == nil || !strings.Contains(err.Error(), "exceeds cap") {
		t.Fatalf("oversize frame: err=%v", err)
	}
}

// TestReadFrameTruncatedAllocBounded: a header declaring a MaxFrame
// payload that never arrives costs what arrived, not the declared 64 MiB,
// and keeps its truncation error.
func TestReadFrameTruncatedAllocBounded(t *testing.T) {
	var hdr [frameHeader]byte
	binary.BigEndian.PutUint32(hdr[0:4], MaxFrame)
	for _, tc := range []struct {
		frame []byte
		want  string
	}{
		{hdr[:], "dispatch: truncated frame payload: EOF"},
		{append(hdr[:], make([]byte, 1000)...), "dispatch: truncated frame payload: unexpected EOF"},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadFrame(bytes.NewReader(tc.frame))
		runtime.ReadMemStats(&after)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%d-byte frame: err=%v, want %q", len(tc.frame), err, tc.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("%d-byte frame declaring %d bytes allocated %d bytes", len(tc.frame), MaxFrame, grew)
		}
	}
}

// FuzzReadFrame: every input either fails to read, or reads as a Msg
// that WriteFrame re-encodes and ReadFrame decodes back equal — equal
// as encoded, since an empty list under omitempty legitimately comes
// back nil (testdata/fuzz holds such a case). Seeds
// are real hello, unit, cell and done frames, plus corrupt, truncated
// and oversize ones. Each input is also read as a payload behind a
// valid header, so mutations reach the JSON decoder instead of dying
// at the checksum.
func FuzzReadFrame(f *testing.F) {
	matrix := testSuite()[0]
	rep, err := sweep.Run(matrix, sweep.Options{Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	var frames [][]byte
	for _, m := range []*Msg{
		{Kind: KindHello, Worker: "w0"},
		{Kind: KindUnit, Unit: &Unit{ID: "dispatch-a#0/2", Matrix: matrix, Shard: sweep.Shard{Index: 0, Count: 2}, TotalCells: len(rep.Cells)}},
		{Kind: KindCell, UnitID: "dispatch-a#0/2", Cell: &rep.Cells[0]},
		{Kind: KindDone, UnitID: "dispatch-a#0/2"},
	} {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, m); err != nil {
			f.Fatal(err)
		}
		frames = append(frames, buf.Bytes())
		f.Add(buf.Bytes())
	}
	cell := frames[2]
	corrupt := bytes.Clone(cell)
	corrupt[len(corrupt)/2] ^= 0x20
	f.Add(corrupt)
	f.Add(cell[:len(cell)-7])
	f.Add(cell[:5])
	var oversize [frameHeader]byte
	binary.BigEndian.PutUint32(oversize[0:4], MaxFrame+1)
	f.Add(oversize[:])
	f.Fuzz(func(t *testing.T, data []byte) {
		var framed bytes.Buffer
		if len(data) <= MaxFrame {
			if err := writeRawFrame(&framed, data, crc32.ChecksumIEEE(data)); err != nil {
				t.Fatal(err)
			}
		}
		for _, frame := range [][]byte{data, framed.Bytes()} {
			m, err := ReadFrame(bytes.NewReader(frame))
			if err != nil {
				continue
			}
			var buf bytes.Buffer
			if err := WriteFrame(&buf, m); err != nil {
				t.Fatalf("read %+v, which does not re-encode: %v", m, err)
			}
			sent := bytes.Clone(buf.Bytes())
			back, err := ReadFrame(&buf)
			if err != nil {
				t.Fatalf("re-encoded %+v does not read back: %v", m, err)
			}
			if err := WriteFrame(&buf, back); err != nil || !bytes.Equal(buf.Bytes(), sent) {
				t.Fatalf("frame %q read back as a message that encodes to %q (%v)", sent, buf.Bytes(), err)
			}
		}
	})
}

func TestParseFault(t *testing.T) {
	cases := []struct {
		spec string
		want Fault
		bad  bool
	}{
		{spec: "crash@5", want: Fault{Kind: FaultCrash, After: 5}},
		{spec: "hang@0", want: Fault{Kind: FaultHang}},
		{spec: "corrupt@2", want: Fault{Kind: FaultCorrupt, After: 2}},
		{spec: "dup@1", want: Fault{Kind: FaultDup, After: 1}},
		{spec: "slow=50ms", want: Fault{Kind: FaultSlow, Delay: 50 * time.Millisecond}},
		{spec: "crash", bad: true},
		{spec: "crash@", bad: true},
		{spec: "crash@-1", bad: true},
		{spec: "crash@2x", bad: true},
		{spec: "explode@3", bad: true},
		{spec: "slow=0s", bad: true},
		{spec: "slow=banana", bad: true},
		{spec: "crash=5s", bad: true},
		{spec: "", bad: true},
	}
	for _, c := range cases {
		got, err := ParseFault(c.spec)
		if c.bad {
			if err == nil {
				t.Errorf("ParseFault(%q) accepted, want error", c.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseFault(%q): %v", c.spec, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseFault(%q) = %+v, want %+v", c.spec, got, c.want)
		}
	}
}

func TestParseFaults(t *testing.T) {
	m, err := ParseFaults("0:crash@5; 2:slow=50ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 || m[0].Kind != FaultCrash || m[0].After != 5 || m[2].Kind != FaultSlow {
		t.Fatalf("schedule parsed wrong: %+v", m)
	}
	if m2, err := ParseFaults("  "); err != nil || len(m2) != 0 {
		t.Fatalf("blank schedule: %v %v", m2, err)
	}
	for _, bad := range []string{"crash@5", "x:crash@5", "-1:crash@5", "0:crash@5;0:hang@2"} {
		if _, err := ParseFaults(bad); err == nil {
			t.Errorf("ParseFaults(%q) accepted, want error", bad)
		}
	}
}

// formatFaults renders a parsed schedule canonically from its fields:
// WORKER:SPEC entries in worker order, joined by semicolons.
func formatFaults(m map[int]Fault) string {
	workers := make([]int, 0, len(m))
	for w := range m {
		workers = append(workers, w)
	}
	sort.Ints(workers)
	entries := make([]string, len(workers))
	for i, w := range workers {
		entries[i] = fmt.Sprintf("%d:%s", w, m[w])
	}
	return strings.Join(entries, ";")
}

// FuzzParseFaults: every -fault schedule either fails to parse, or
// parses to a schedule whose canonical rendering — built from the
// parsed faults, not the input — parses back to an equal schedule.
// Seeds are the schedules CI and make dispatch-smoke pass, the
// dispatcher tests' schedules, and malformed entries.
func FuzzParseFaults(f *testing.F) {
	for _, seed := range []string{
		"0:crash@5", "0:crash@5; 2:slow=50ms", "4:crash@1", "0:crash@5;3:hang@1",
		"1:corrupt@2;2:dup@0", "0:slow=1h2m3.5s", "", "  ", ";;", "1:crash@5;",
		"0crash@5", "x:crash@1", "-1:crash@1", "0:crash@5;0:hang@1", "0:explode@3",
		"0:slow=0s", "0:slow=banana", "0:crash@", "0:crash@+5", "0:crash=5s", "0: hang@1 ",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		m, err := ParseFaults(spec)
		if err != nil {
			return
		}
		canon := formatFaults(m)
		back, err := ParseFaults(canon)
		if err != nil {
			t.Fatalf("%q parsed, but its canonical rendering %q does not: %v", spec, canon, err)
		}
		if !reflect.DeepEqual(back, m) {
			t.Fatalf("%q parsed as %v; its canonical rendering %q parses back as %v", spec, m, canon, back)
		}
	})
}

// TestSuspectorBackoff drives the ◇S shape with a synthetic clock: a
// silent worker is suspected (completeness); a heartbeat refutes the
// suspicion and doubles the timeout, so a steadily-slow worker is
// eventually never suspected again (eventual accuracy).
func TestSuspectorBackoff(t *testing.T) {
	t0 := time.Unix(1000, 0)
	s := NewSuspector(100*time.Millisecond, time.Second)
	s.Register("w", t0)

	if s.Suspected("w", t0.Add(50*time.Millisecond)) {
		t.Fatal("suspected within the base timeout")
	}
	if !s.Suspected("w", t0.Add(150*time.Millisecond)) {
		t.Fatal("not suspected after the base timeout (completeness)")
	}
	// The worker was merely slow: its heartbeat lands at +200ms.
	if !s.Heartbeat("w", t0.Add(200*time.Millisecond)) {
		t.Fatal("heartbeat did not report a refuted suspicion")
	}
	if got := s.Timeout("w"); got != 200*time.Millisecond {
		t.Fatalf("timeout after one wrong suspicion = %v, want 200ms", got)
	}
	// The same 150ms of silence no longer triggers suspicion.
	if s.Suspected("w", t0.Add(350*time.Millisecond)) {
		t.Fatal("suspected again at the old timeout after backoff")
	}
	// Push the timeout to the cap: it must not grow past max.
	now := t0.Add(400 * time.Millisecond)
	for i := 0; i < 10; i++ {
		now = now.Add(s.Timeout("w") + time.Millisecond)
		if !s.Suspected("w", now) {
			t.Fatalf("iteration %d: silence past the timeout not suspected", i)
		}
		s.Heartbeat("w", now)
	}
	if got := s.Timeout("w"); got != time.Second {
		t.Fatalf("timeout grew past the cap: %v", got)
	}

	// Unknown and forgotten workers are never suspected.
	if s.Suspected("ghost", now) {
		t.Fatal("unknown worker suspected")
	}
	s.Forget("w")
	if s.Suspected("w", now.Add(time.Hour)) {
		t.Fatal("forgotten worker suspected")
	}
	if s.SilentFor("w", now) != 0 || s.Timeout("w") != 0 {
		t.Fatal("forgotten worker retains state")
	}
}

func TestFaultString(t *testing.T) {
	for spec, want := range map[string]string{
		"crash@5":   "crash@5",
		"slow=50ms": "slow=50ms",
	} {
		f, err := ParseFault(spec)
		if err != nil {
			t.Fatal(err)
		}
		if f.String() != want {
			t.Errorf("String() = %q, want %q", f.String(), want)
		}
	}
	if (Fault{}).String() != "none" {
		t.Errorf("zero fault String() = %q", Fault{}.String())
	}
}
