package main

import (
	"bytes"
	"encoding/binary"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// frameHeader is the dispatch wire protocol's per-frame header: a 4-byte
// big-endian payload length and a 4-byte CRC32 (internal/dispatch/wire.go).
const frameHeader = 8

// frameCounter follows one direction of a framed byte stream and counts
// whole frames and bytes. It sees the bytes only as the transport passes
// them through, in whatever pieces Read and Write were called with.
// feed is called from one goroutine at a time (the direction's reader or
// writer); the totals may be read from any goroutine.
type frameCounter struct {
	hdr     [frameHeader]byte
	hdrN    int    // header bytes seen of the current frame
	left    int    // payload bytes still to come once the header is complete
	payload []byte // the current frame's payload, when kept

	frames, bytes atomic.Int64
}

// feed advances the parser over b. When keep is set it calls done with
// each completed frame's payload (valid only during the call).
func (f *frameCounter) feed(b []byte, keep bool, done func(payload []byte)) {
	f.bytes.Add(int64(len(b)))
	for len(b) > 0 {
		if f.hdrN < frameHeader {
			k := copy(f.hdr[f.hdrN:], b)
			f.hdrN += k
			b = b[k:]
			if f.hdrN == frameHeader {
				f.left = int(binary.BigEndian.Uint32(f.hdr[:4]))
				f.payload = f.payload[:0]
				if f.left == 0 {
					f.complete(keep, done)
				}
			}
			continue
		}
		k := min(f.left, len(b))
		if keep {
			f.payload = append(f.payload, b[:k]...)
		}
		f.left -= k
		b = b[k:]
		if f.left == 0 {
			f.complete(keep, done)
		}
	}
}

func (f *frameCounter) complete(keep bool, done func([]byte)) {
	f.frames.Add(1)
	f.hdrN = 0
	if keep && done != nil {
		done(f.payload)
	}
}

// frameEvent is one whole frame seen on a traced pass: its direction
// (in: worker → dispatcher), when its last byte passed, and a copy of
// its payload.
type frameEvent struct {
	In      bool
	At      time.Time
	Payload []byte
}

// countingRW wraps a worker Transport's RW. It counts the frames and
// bytes of each direction and the time spent inside Read and Write. On a
// traced pass it also logs every Read and Write call as a span and keeps
// every whole frame with the instant it completed. Reads first replay
// prefix (the hello frame the benchmark consumed to time the spawn), so
// the dispatcher sees the worker's byte stream unchanged.
type countingRW struct {
	rw     io.ReadWriteCloser
	r      io.Reader
	name   string
	log    *spanLog // nil: untraced
	parent int      // span the calls are logged under

	in, out         frameCounter
	readNS, writeNS atomic.Int64
	eventsMu        sync.Mutex
	events          []frameEvent
}

func newCountingRW(name string, rw io.ReadWriteCloser, prefix []byte, log *spanLog) *countingRW {
	c := &countingRW{rw: rw, r: rw, name: name, log: log}
	if len(prefix) > 0 {
		c.r = io.MultiReader(bytes.NewReader(prefix), rw)
	}
	return c
}

func (c *countingRW) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := c.r.Read(p)
	end := time.Now()
	c.readNS.Add(end.Sub(start).Nanoseconds())
	c.in.feed(p[:n], c.log != nil, func(payload []byte) { c.keep(true, end, payload) })
	c.log.add(c.parent, "wire", "read:"+c.name, start, end)
	return n, err
}

func (c *countingRW) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.rw.Write(p)
	end := time.Now()
	c.writeNS.Add(end.Sub(start).Nanoseconds())
	c.out.feed(p[:n], c.log != nil, func(payload []byte) { c.keep(false, end, payload) })
	c.log.add(c.parent, "wire", "write:"+c.name, start, end)
	return n, err
}

func (c *countingRW) Close() error { return c.rw.Close() }

func (c *countingRW) keep(in bool, at time.Time, payload []byte) {
	c.eventsMu.Lock()
	defer c.eventsMu.Unlock()
	c.events = append(c.events, frameEvent{In: in, At: at, Payload: append([]byte(nil), payload...)})
}

// frameEvents copies the frames kept so far.
func (c *countingRW) frameEvents() []frameEvent {
	c.eventsMu.Lock()
	defer c.eventsMu.Unlock()
	return append([]frameEvent(nil), c.events...)
}
