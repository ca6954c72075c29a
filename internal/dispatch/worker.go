package dispatch

import (
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"

	"fdgrid/internal/sweep"
)

// Stdio is the transport of a stdio subprocess worker: frames arrive on
// stdin and leave on stdout (which therefore must carry nothing else —
// logs go to stderr).
type Stdio struct{}

func (Stdio) Read(p []byte) (int, error)  { return os.Stdin.Read(p) }
func (Stdio) Write(p []byte) (int, error) { return os.Stdout.Write(p) }
func (Stdio) Close() error {
	os.Stdin.Close()
	return os.Stdout.Close()
}

// WorkerOptions configures ServeWorker.
type WorkerOptions struct {
	// Name is the worker's self-reported identity, sent in the hello
	// frame and echoed in logs.
	Name string
	// Pool is the sweep worker-pool size per unit (0: GOMAXPROCS).
	Pool int
	// Heartbeat is the liveness interval (0: 500ms).
	Heartbeat time.Duration
	// Fault, when non-zero, arms the deterministic fault injector: the
	// worker misbehaves exactly as specified (see the Fault kinds).
	Fault Fault
}

func (o WorkerOptions) heartbeat() time.Duration {
	if o.Heartbeat > 0 {
		return o.Heartbeat
	}
	return 500 * time.Millisecond
}

// workerConn serializes frame writes and centralizes the fault
// injector's send-side state.
type workerConn struct {
	mu    sync.Mutex
	rw    io.ReadWriteCloser
	fault Fault
	sent  int  // cell results sent (the fault trigger counter)
	hung  bool // FaultHang fired: all sends are silently dropped
	fired bool // one-shot faults (corrupt/dup) already fired
}

// send writes one frame unless the hang fault has silenced the worker.
func (c *workerConn) send(m *Msg) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.hung {
		return nil
	}
	return WriteFrame(c.rw, m)
}

// sendCell writes one cell-result frame, firing any armed fault whose
// trigger count has been reached. Returns errWorkerCrash when the
// crash fault fires (the caller exits the process loop).
func (c *workerConn) sendCell(m *Msg) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.hung {
		return nil
	}
	switch c.fault.Kind {
	case FaultSlow:
		c.mu.Unlock()
		time.Sleep(c.fault.Delay)
		c.mu.Lock()
	case FaultCrash:
		if c.sent >= c.fault.After {
			c.rw.Close()
			return errWorkerCrash
		}
	case FaultHang:
		if c.sent >= c.fault.After {
			c.hung = true
			return nil
		}
	case FaultCorrupt:
		if !c.fired && c.sent >= c.fault.After {
			c.fired = true
			payload := []byte(`{"kind":"cell"}`)
			// Deliberately wrong checksum: the dispatcher must detect
			// this frame as corrupt, not parse it.
			return writeRawFrame(c.rw, payload, crc32.ChecksumIEEE(payload)+1)
		}
	}
	if err := WriteFrame(c.rw, m); err != nil {
		return err
	}
	c.sent++
	if c.fault.Kind == FaultDup && !c.fired && c.sent > c.fault.After {
		c.fired = true
		return WriteFrame(c.rw, m) // duplicate delivery
	}
	return nil
}

var errWorkerCrash = fmt.Errorf("dispatch: injected crash")

// ServeWorker runs the worker side of the protocol on rw until the
// dispatcher sends a shutdown, the connection closes, or an injected
// crash fires. It sends hello, heartbeats on a ticker, accepts unit
// assignments one at a time, runs each via sweep.Run streaming every
// CellResult as it lands, and reports done or error per unit.
//
// Every worker runs the sweep package's built-in protocol table, so
// any protocol the dispatcher's matrices name is runnable here; a matrix
// naming an unknown protocol fails its unit with an error frame rather
// than killing the worker.
func ServeWorker(rw io.ReadWriteCloser, opt WorkerOptions) error {
	conn := &workerConn{rw: rw, fault: opt.Fault}
	if err := conn.send(&Msg{Kind: KindHello, Worker: opt.Name}); err != nil {
		return err
	}

	// Heartbeats tick independently of unit execution so a long cell
	// does not read as death. The hang fault silences these too — that
	// is what makes it a hang and not a straggle.
	stopBeats := make(chan struct{})
	var beatsDone sync.WaitGroup
	beatsDone.Add(1)
	go func() {
		defer beatsDone.Done()
		t := time.NewTicker(opt.heartbeat())
		defer t.Stop()
		for {
			select {
			case <-stopBeats:
				return
			case <-t.C:
				if conn.send(&Msg{Kind: KindHeartbeat, Worker: opt.Name}) != nil {
					return
				}
			}
		}
	}()
	defer func() {
		close(stopBeats)
		beatsDone.Wait()
	}()

	for {
		m, err := ReadFrame(rw)
		if err != nil {
			if err == io.EOF {
				return nil // dispatcher went away cleanly
			}
			return err
		}
		switch m.Kind {
		case KindShutdown:
			return nil
		case KindUnit:
			if m.Unit == nil {
				return fmt.Errorf("dispatch: unit frame without a unit")
			}
			if err := runUnit(conn, opt, m.Unit); err != nil {
				if err == errWorkerCrash {
					return err
				}
				if ferr := conn.send(&Msg{Kind: KindError, Worker: opt.Name, UnitID: m.Unit.ID, Detail: err.Error()}); ferr != nil {
					return ferr
				}
				continue
			}
			if err := conn.send(&Msg{Kind: KindDone, Worker: opt.Name, UnitID: m.Unit.ID}); err != nil {
				return err
			}
		default:
			// Unknown dispatcher frames are ignored for forward
			// compatibility.
		}
	}
}

// runUnit executes one unit via sweep.Run, streaming each CellResult
// over the wire as it completes. A crash fault fired mid-unit cancels
// the rest of the run and surfaces errWorkerCrash.
func runUnit(conn *workerConn, opt WorkerOptions, u *Unit) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var sendErr error
	var sendMu sync.Mutex
	_, err := sweep.Run(u.Matrix, sweep.Options{
		Workers: opt.Pool,
		Shard:   u.Shard,
		Context: ctx,
		OnResult: func(c sweep.CellResult) {
			sendMu.Lock()
			defer sendMu.Unlock()
			if sendErr != nil {
				return
			}
			if err := conn.sendCell(&Msg{Kind: KindCell, Worker: opt.Name, UnitID: u.ID, Cell: &c}); err != nil {
				sendErr = err
				cancel()
			}
		},
	})
	sendMu.Lock()
	defer sendMu.Unlock()
	if sendErr != nil {
		return sendErr
	}
	return err
}
