// Package dispatch is the distributed sweep dispatcher behind cmd/sweepd:
// it splits a suite of matrices into shard-shaped work units, schedules
// them across a fleet of worker processes over a length-prefixed JSON
// wire protocol, streams CellResults back, and merges the collected
// shards into the exact bytes the single-process run would have
// produced.
//
// Robustness is the point. The dispatcher runs an eventually-accurate
// suspector over its workers — per-worker heartbeats against a timeout
// that backs off exponentially whenever a suspicion proves wrong, the
// same ◇S/φ shape the failure-detector literature formalizes and the
// repo's own fd package simulates. Suspicion drives scheduling, not
// termination: a suspected worker's unit is speculatively re-dispatched
// to a trusted peer (first complete result wins, duplicates are
// discarded by unit ID) and the worker is only hard-killed when the
// suspicion persists past SuspectMax or its connection errors outright.
// Failed units are retried a bounded number of times, a dead worker's
// outstanding units are re-shared across the survivors, and when the
// whole fleet is gone the dispatcher degrades to running units locally
// in-process.
//
// This package is host-side infrastructure: wall-clock timeouts,
// goroutines, and real I/O are legal here (detlint scopes it out of the
// deterministic set). Determinism is preserved where it matters — in
// the artifact: the merged report is byte-identical to the unsharded
// golden under every fault schedule the injection harness can produce,
// which is exactly what the package's tests assert.
package dispatch

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"fdgrid/internal/sweep"
)

// Frame format: 4-byte big-endian payload length, 4-byte IEEE CRC32 of
// the payload, then the JSON payload. The CRC turns a corrupted or
// truncated frame into a detected transport error instead of a
// misparsed message; the length cap bounds how much a broken peer can
// make us read, and the payload buffer grows with the bytes actually
// received, so a header alone cannot make us allocate its length.
const (
	frameHeader = 8
	// framePrealloc caps the payload buffer reserved up front from the
	// header's length; longer payloads grow as they arrive.
	framePrealloc = 64 << 10
	// MaxFrame bounds a single frame's payload. 64 MiB comfortably holds
	// the largest unit assignment (a full Matrix plus cell indices) and
	// any CellResult.
	MaxFrame = 64 << 20
)

// Message kinds, in the Kind field of every frame.
const (
	// KindHello: worker → dispatcher, first frame on a connection.
	// Carries the worker's self-reported name in Worker.
	KindHello = "hello"
	// KindUnit: dispatcher → worker, assigns a work unit. Carries Unit.
	KindUnit = "unit"
	// KindCell: worker → dispatcher, one completed cell of the unit in
	// Cell, tagged with the unit's ID.
	KindCell = "cell"
	// KindDone: worker → dispatcher, the unit named by UnitID completed;
	// every owned cell was streamed.
	KindDone = "done"
	// KindHeartbeat: worker → dispatcher, liveness signal, sent
	// periodically and between cells.
	KindHeartbeat = "heartbeat"
	// KindError: worker → dispatcher, the unit named by UnitID failed
	// (Detail says why). The worker stays alive and schedulable.
	KindError = "error"
	// KindShutdown: dispatcher → worker, finish nothing further and
	// exit.
	KindShutdown = "shutdown"
)

// Unit is one schedulable slice of the suite: shard Shard.Index of
// Shard.Count over matrix Matrix, whose expansion has TotalCells cells.
// ID is the dispatcher-assigned identity ("matrix#i/m") that tags every
// result frame, so late or duplicated deliveries from retried and
// speculated attempts are recognized and discarded.
type Unit struct {
	ID         string       `json:"id"`
	Matrix     sweep.Matrix `json:"matrix"`
	Shard      sweep.Shard  `json:"shard"`
	TotalCells int          `json:"total_cells"`
}

// Msg is the wire envelope. Kind selects which other fields are
// meaningful (see the Kind constants).
type Msg struct {
	Kind   string            `json:"kind"`
	Worker string            `json:"worker,omitempty"`
	Unit   *Unit             `json:"unit,omitempty"`
	UnitID string            `json:"unit_id,omitempty"`
	Cell   *sweep.CellResult `json:"cell,omitempty"`
	Detail string            `json:"detail,omitempty"`
}

// WriteFrame encodes m and writes one length+CRC+payload frame.
func WriteFrame(w io.Writer, m *Msg) error {
	payload, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return writeRawFrame(w, payload, crc32.ChecksumIEEE(payload))
}

// writeRawFrame writes a frame with an explicit CRC — the fault
// injector uses a wrong CRC to simulate line corruption.
func writeRawFrame(w io.Writer, payload []byte, sum uint32) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("dispatch: frame payload %d bytes exceeds cap %d", len(payload), MaxFrame)
	}
	var hdr [frameHeader]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], sum)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ErrCorruptFrame reports a frame whose payload failed its checksum.
// The connection is unusable after it: framing may be out of sync.
type ErrCorruptFrame struct {
	Want, Got uint32
}

func (e *ErrCorruptFrame) Error() string {
	return fmt.Sprintf("dispatch: corrupt frame (crc %08x, want %08x)", e.Got, e.Want)
}

// ReadFrame reads and decodes one frame. io.EOF at a frame boundary is
// returned as-is (clean close); a checksum mismatch returns
// *ErrCorruptFrame and the stream must be abandoned.
func ReadFrame(r io.Reader) (*Msg, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("dispatch: truncated frame header: %w", err)
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	want := binary.BigEndian.Uint32(hdr[4:8])
	if n > MaxFrame {
		return nil, fmt.Errorf("dispatch: frame payload %d bytes exceeds cap %d", n, MaxFrame)
	}
	// bytes.Buffer.ReadFrom wants MinRead spare bytes before each read,
	// the final EOF probe included: reserving them keeps a small frame
	// to one allocation.
	var buf bytes.Buffer
	buf.Grow(min(int(n), framePrealloc) + bytes.MinRead)
	if got, err := io.CopyN(&buf, r, int64(n)); err != nil {
		if err == io.EOF && got > 0 {
			err = io.ErrUnexpectedEOF // io.ReadFull's wording for a partial read
		}
		return nil, fmt.Errorf("dispatch: truncated frame payload: %w", err)
	}
	payload := buf.Bytes()
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, &ErrCorruptFrame{Want: want, Got: got}
	}
	var m Msg
	if err := DecodeStrict(payload, &m); err != nil {
		return nil, fmt.Errorf("dispatch: bad frame payload: %w", err)
	}
	return &m, nil
}

// DecodeStrict decodes data, which must hold exactly one JSON value,
// into v. A field v does not declare is an error at every level, and so
// is anything but white space after the value: a misspelled or stray
// key is refused instead of being silently dropped.
func DecodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}
