package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"fdgrid/internal/dispatch"
	"fdgrid/internal/sweep"
)

// pass is one full run of a workload's cells: its end-to-end
// measurements, the exact counts and bytes it is checked by, and the
// per-layer observations a traced pass adds.
type pass struct {
	traced  bool
	elapsed float64 // the whole pass, spawn and teardown included (s)

	wall, cpu float64 // timed region: workload without set-up (s)
	peakRSS   int64   // bytes: the benchmark process's peak in-process, the largest worker's in fleet
	spawn     float64 // fleet: first spawn to the last worker's hello (s)

	// Exact counts and the rendered suite's fingerprint.
	cells, failedCells int
	msgs, vticks       int64
	renderBytes        int
	digest             [32]byte
	goldenMismatch     bool

	// Layer observations (cell timings are filled on every in-process
	// pass; spans, runtime deltas and fleet cell timings only when traced).
	render     float64
	cellWall   []float64 // seconds, one per cell
	busy, idle float64
	runSelf    float64
	byProtocol map[string]float64
	rt         runtimeSample
	fleet      *fleetObs
}

// fleetObs is what a fleet pass sees of the dispatch layer and its wire.
type fleetObs struct {
	run                 float64
	stats               dispatch.Stats
	workers             int
	framesIn, framesOut int64
	bytesIn, bytesOut   int64
	readS, writeS       float64
}

// absorb takes a pass's exact counts and fingerprint from its reports and
// rendered suite.
func (p *pass) absorb(reports []*sweep.Report, suite []byte, golden *goldenCheck) {
	p.renderBytes = len(suite)
	p.digest = sha256.Sum256(suite)
	p.goldenMismatch = golden != nil && !golden.matches(suite)
	for _, r := range reports {
		for _, c := range r.Cells {
			p.cells++
			if c.Verdict != sweep.Pass {
				p.failedCells++
			}
			p.msgs += c.Messages
			p.vticks += int64(c.Steps)
		}
	}
}

// runtimeNames are the runtime/metrics a traced pass reads before and
// after; runtimeSample holds them in this order.
var runtimeNames = [...]string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

type runtimeSample [len(runtimeNames)]float64

func readRuntime() runtimeSample {
	samples := make([]metrics.Sample, len(runtimeNames))
	for i, name := range runtimeNames {
		samples[i].Name = name
	}
	metrics.Read(samples)
	var out runtimeSample
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

// selfUsage returns this process's user+system CPU seconds and its peak
// resident set in bytes.
func selfUsage() (cpu float64, maxRSS int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9, ru.Maxrss * 1024
}

// inprocPass runs every matrix through sweep.Run in suite order, then
// renders the suite with sweep.SuiteJSON. On a traced pass each Run call
// is a span whose children are its cells: a cell span ends when OnResult
// fires and starts the cell's WallNS earlier.
func (b *bench) inprocPass(log *spanLog) (*pass, error) {
	p := &pass{traced: log != nil, byProtocol: map[string]float64{}}
	runtime.GC()
	var rt0 runtimeSample
	if p.traced {
		rt0 = readRuntime()
	}
	cpu0, _ := selfUsage()
	start := time.Now()
	reports := make([]*sweep.Report, 0, len(b.matrices))
	walls := make([]int64, 0, len(b.matrices))
	runIDs := make([]int, 0, len(b.matrices))
	for _, m := range b.matrices {
		opt := sweep.Options{Workers: b.pool}
		runID := log.reserve(0, "sweep", "Run:"+m.Name)
		if p.traced {
			opt.OnResult = func(c sweep.CellResult) {
				end := time.Now()
				log.add(runID, "cell", m.Protocol, end.Add(-time.Duration(c.WallNS)), end)
			}
		}
		t0 := time.Now()
		rep, err := sweep.Run(m, opt)
		t1 := time.Now()
		log.finish(runID, t0, t1)
		if err != nil {
			return nil, fmt.Errorf("sweep.Run %s: %w", m.Name, err)
		}
		reports = append(reports, rep)
		walls = append(walls, t1.Sub(t0).Nanoseconds())
		runIDs = append(runIDs, runID)
	}
	r0 := time.Now()
	suite, err := sweep.SuiteJSON(reports)
	end := time.Now()
	log.add(0, "sweep", "SuiteJSON", r0, end)
	if err != nil {
		return nil, fmt.Errorf("sweep.SuiteJSON: %w", err)
	}
	cpu1, rss := selfUsage()
	if p.traced {
		p.rt = readRuntime().sub(rt0)
	}
	p.wall, p.cpu, p.peakRSS = end.Sub(start).Seconds(), cpu1-cpu0, rss
	p.render = end.Sub(r0).Seconds()
	p.absorb(reports, suite, b.golden)

	busy := make([]int64, len(reports))
	for i, r := range reports {
		for _, c := range r.Cells {
			busy[i] += c.WallNS
			s := float64(c.WallNS) / 1e9
			p.cellWall = append(p.cellWall, s)
			p.byProtocol[r.Matrix.Protocol] += s
			p.busy += s
		}
	}
	p.idle = float64(barrierIdle(walls, busy, b.pool)) / 1e9
	if p.traced {
		children := childrenByParent(log.snapshot())
		for _, id := range runIDs {
			p.runSelf += float64(selfTime(log.spanByID(id), children[id])) / 1e9
		}
	}
	return p, nil
}

func childrenByParent(spans []span) map[int][]span {
	out := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			out[s.Parent] = append(out[s.Parent], s)
		}
	}
	return out
}

// helloTimeout bounds how long a spawned worker may take to say hello.
const helloTimeout = 30 * time.Second

// killGrace is how long after dispatch.Run returns the benchmark waits
// for the dispatcher to kill a worker itself (it does so 100 ms after
// its shutdown frame) before killing it.
const killGrace = 3 * time.Second

// fleetProc is one sweepd -worker subprocess. The benchmark owns its
// reaping: the Transport handed to the dispatcher carries a Kill that
// closes the pipes and kills the process as dispatch.SpawnWorker's does,
// but leaves the Wait to the benchmark, whose Wait yields the worker's
// CPU time and peak RSS.
type fleetProc struct {
	name   string
	cmd    *exec.Cmd
	raw    io.ReadWriteCloser
	rw     *countingRW
	once   sync.Once
	killed chan struct{}
}

func (fp *fleetProc) kill() {
	fp.once.Do(func() {
		fp.raw.Close()
		fp.cmd.Process.Kill()
		close(fp.killed)
	})
}

// spawnFleet starts the workload's worker fleet through
// dispatch.SpawnWorker and waits for each worker's hello frame; the
// hello bytes are replayed to the dispatcher through the counting
// transport wrapper.
func (b *bench) spawnFleet(log *spanLog) ([]*fleetProc, error) {
	var procs []*fleetProc
	fail := func(err error) ([]*fleetProc, error) {
		reapFleet(procs, 0)
		return nil, err
	}
	for i := 0; i < b.fleetWorkers; i++ {
		name := fmt.Sprintf("sub%d", i)
		cmd := exec.Command(b.sweepd, "-worker", "-name", name, "-pool", strconv.Itoa(b.fleetPool))
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		tr, err := dispatch.SpawnWorker(name, cmd)
		log.add(0, "dispatch", "SpawnWorker:"+name, t0, time.Now())
		if err != nil {
			return fail(fmt.Errorf("spawn %s: %w", name, err))
		}
		procs = append(procs, &fleetProc{name: name, cmd: cmd, raw: tr.RW, killed: make(chan struct{})})
	}
	for _, fp := range procs {
		t0 := time.Now()
		hello, err := awaitHello(fp)
		log.add(0, "dispatch", "hello:"+fp.name, t0, time.Now())
		if err != nil {
			return fail(fmt.Errorf("worker %s: %w", fp.name, err))
		}
		fp.rw = newCountingRW(fp.name, fp.raw, hello, log)
	}
	return procs, nil
}

// awaitHello reads a worker's first frame, which must be its hello, and
// returns the frame's raw bytes.
func awaitHello(fp *fleetProc) ([]byte, error) {
	var buf bytes.Buffer
	done := make(chan error, 1)
	go func() {
		m, err := dispatch.ReadFrame(io.TeeReader(fp.raw, &buf))
		if err == nil && m.Kind != dispatch.KindHello {
			err = fmt.Errorf("first frame is %q, want %q", m.Kind, dispatch.KindHello)
		}
		done <- err
	}()
	select {
	case err := <-done:
		return buf.Bytes(), err
	case <-time.After(helloTimeout):
		fp.kill()
		<-done
		return nil, fmt.Errorf("no hello within %s", helloTimeout)
	}
}

// reapFleet waits up to grace for the dispatcher to kill each worker,
// kills the ones it did not, and waits for every process to end. It
// returns the workers' summed CPU seconds and the largest peak RSS.
func reapFleet(procs []*fleetProc, grace time.Duration) (cpu float64, maxRSS int64) {
	for _, fp := range procs {
		select {
		case <-fp.killed:
		case <-time.After(grace):
			fp.kill()
		}
		// The exit status is moot: the dispatcher kills every worker
		// at shutdown. Wait still fills in the worker's rusage.
		_ = fp.cmd.Wait()
		st := fp.cmd.ProcessState
		if st == nil {
			continue
		}
		cpu += (st.UserTime() + st.SystemTime()).Seconds()
		if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
			maxRSS = max(maxRSS, ru.Maxrss*1024)
		}
	}
	return cpu, maxRSS
}

// spawnTime spawns a fleet, times it up to the last hello and tears it
// down again: a set-up repetition with no work.
func (b *bench) spawnTime() (float64, error) {
	t0 := time.Now()
	procs, err := b.spawnFleet(nil)
	d := time.Since(t0).Seconds()
	if err != nil {
		return 0, err
	}
	reapFleet(procs, 0)
	return d, nil
}

// fleetPass runs the workload's cells through dispatch.Run over a fresh
// worker fleet with the sweepd defaults (4 units per matrix, 2 retries,
// 1 s suspicion, speculation and local fallback on), then renders the
// merged reports with sweep.SuiteJSON. The timed region is Run plus
// render; spawning is set-up and reaping comes after.
func (b *bench) fleetPass(log *spanLog) (*pass, error) {
	p := &pass{traced: log != nil, byProtocol: map[string]float64{}}
	runtime.GC()
	s0 := time.Now()
	procs, err := b.spawnFleet(log)
	if err != nil {
		return nil, err
	}
	p.spawn = time.Since(s0).Seconds()

	transports := make([]dispatch.Transport, len(procs))
	runID := log.reserve(0, "dispatch", "dispatch.Run")
	for i, fp := range procs {
		fp.rw.parent = runID
		transports[i] = dispatch.Transport{Name: fp.name, RW: fp.rw, Kill: fp.kill}
	}
	cfg := dispatch.Config{Matrices: b.matrices, Speculate: true, LocalFallback: true}

	var rt0 runtimeSample
	if p.traced {
		rt0 = readRuntime()
	}
	cpu0, _ := selfUsage()
	start := time.Now()
	reports, stats, runErr := dispatch.Run(cfg, transports)
	runEnd := time.Now()
	log.finish(runID, start, runEnd)
	var suite []byte
	if runErr == nil {
		suite, runErr = sweep.SuiteJSON(reports)
	}
	end := time.Now()
	log.add(0, "sweep", "SuiteJSON", runEnd, end)
	cpu1, _ := selfUsage()
	if p.traced {
		p.rt = readRuntime().sub(rt0)
	}
	workerCPU, workerRSS := reapFleet(procs, killGrace)
	if runErr != nil {
		return nil, fmt.Errorf("dispatch.Run: %w", runErr)
	}
	p.wall = end.Sub(start).Seconds()
	p.cpu = cpu1 - cpu0 + workerCPU
	p.peakRSS = workerRSS // the dispatcher holds only specs and merged reports
	p.render = end.Sub(runEnd).Seconds()
	p.absorb(reports, suite, b.golden)

	obs := &fleetObs{run: runEnd.Sub(start).Seconds(), stats: *stats, workers: len(procs)}
	for _, fp := range procs {
		obs.framesIn += fp.rw.in.frames.Load()
		obs.framesOut += fp.rw.out.frames.Load()
		obs.bytesIn += fp.rw.in.bytes.Load()
		obs.bytesOut += fp.rw.out.bytes.Load()
		obs.readS += float64(fp.rw.readNS.Load()) / 1e9
		obs.writeS += float64(fp.rw.writeNS.Load()) / 1e9
	}
	p.fleet = obs
	if p.traced {
		for _, fp := range procs {
			for _, c := range workerCells(fp.rw.frameEvents()) {
				p.cellWall = append(p.cellWall, c.seconds)
				p.byProtocol[b.protocolOf[c.matrix]] += c.seconds
				p.busy += c.seconds
			}
		}
		p.idle = max(0, obs.run*float64(b.fleetWorkers*b.fleetPool)-p.busy)
	}
	return p, nil
}

// fleetCell is one cell as the dispatcher's wire sees it.
type fleetCell struct {
	matrix  string
	seconds float64
}

// workerCells derives one worker's cell timings from the frames a traced
// pass kept. With one pool thread per worker, a worker runs its unit's
// cells one after another, so a cell runs from the frame before it (the
// unit assignment or the previous cell) to its own cell frame.
// Heartbeats are skipped; timings include one frame's encode and
// transfer.
func workerCells(events []frameEvent) []fleetCell {
	sort.SliceStable(events, func(i, j int) bool { return events[i].At.Before(events[j].At) })
	var out []fleetCell
	var last time.Time
	for _, e := range events {
		var m struct {
			Kind   string `json:"kind"`
			UnitID string `json:"unit_id"`
		}
		if json.Unmarshal(e.Payload, &m) != nil {
			continue
		}
		switch {
		case !e.In && m.Kind == dispatch.KindUnit:
			last = e.At
		case e.In && m.Kind == dispatch.KindCell && !last.IsZero():
			matrix := m.UnitID
			if i := strings.LastIndexByte(matrix, '#'); i >= 0 {
				matrix = matrix[:i]
			}
			out = append(out, fleetCell{matrix: matrix, seconds: e.At.Sub(last).Seconds()})
			last = e.At
		}
	}
	return out
}
