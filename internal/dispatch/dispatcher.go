package dispatch

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os/exec"
	"sort"
	"time"

	"fdgrid/internal/sweep"
)

// Transport is one worker connection the dispatcher drives: a framed
// read/write stream plus a Kill that tears down the underlying process
// or socket (unblocking any pending I/O). Name labels the worker in
// logs and stats.
type Transport struct {
	Name string
	RW   io.ReadWriteCloser
	Kill func()
}

// SpawnWorker starts cmd as a stdio worker subprocess: the returned
// Transport frames over the child's stdin/stdout, and Kill terminates
// the process. The caller configures cmd's argv to run the worker loop
// (e.g. sweepd -worker).
func SpawnWorker(name string, cmd *exec.Cmd) (Transport, error) {
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return Transport{}, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return Transport{}, err
	}
	if err := cmd.Start(); err != nil {
		return Transport{}, err
	}
	rw := &pipeRW{Reader: stdout, Writer: stdin}
	kill := func() {
		stdin.Close()
		if cmd.Process != nil {
			cmd.Process.Kill()
		}
		// Reap: Kill is only called once, on dismissal or shutdown.
		go cmd.Wait()
	}
	return Transport{Name: name, RW: rw, Kill: kill}, nil
}

// pipeRW glues a subprocess's stdout (read) and stdin (write) into one
// ReadWriteCloser.
type pipeRW struct {
	io.Reader
	io.Writer
}

func (p *pipeRW) Close() error {
	if c, ok := p.Writer.(io.Closer); ok {
		c.Close()
	}
	if c, ok := p.Reader.(io.Closer); ok {
		c.Close()
	}
	return nil
}

// Config tunes a dispatcher run.
type Config struct {
	// Matrices is the suite, in report order. Matrix names must be
	// unique (unit IDs embed them).
	Matrices []sweep.Matrix
	// UnitsPerMatrix is how many shard units each matrix splits into
	// (0: 4), capped at the matrix's cell count.
	UnitsPerMatrix int
	// MaxRetries bounds how many times a failed unit is re-dispatched
	// before falling back to local execution (or failing the run).
	// 0 means 2.
	MaxRetries int
	// SuspectAfter is the suspectors' base timeout (0: 1s): how long a
	// worker may go without a heartbeat before the liveness suspector
	// flags it, and without a cell result (while holding a unit) before
	// the progress suspector flags it as a straggler.
	SuspectAfter time.Duration
	// SuspectMax is how long a worker may stay silent before suspicion
	// hardens into dismissal — the worker is killed and its unit
	// re-shared across the survivors (0: 10× SuspectAfter).
	SuspectMax time.Duration
	// Speculate enables straggler re-dispatch: a unit whose worker
	// stops making progress is additionally queued for a trusted peer;
	// the first complete result wins and duplicates are discarded.
	Speculate bool
	// LocalFallback makes the dispatcher run a unit in-process when its
	// retries are exhausted or the fleet is gone, degrading gracefully
	// down to a single local worker instead of failing the run.
	LocalFallback bool
	// LocalPool is the sweep pool size for fallback units (0:
	// GOMAXPROCS).
	LocalPool int
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

func (c Config) unitsPerMatrix() int {
	if c.UnitsPerMatrix > 0 {
		return c.UnitsPerMatrix
	}
	return 4
}

func (c Config) maxRetries() int {
	if c.MaxRetries > 0 {
		return c.MaxRetries
	}
	return 2
}

func (c Config) suspectAfter() time.Duration {
	if c.SuspectAfter > 0 {
		return c.SuspectAfter
	}
	return time.Second
}

func (c Config) suspectMax() time.Duration {
	if c.SuspectMax > 0 {
		return c.SuspectMax
	}
	return 10 * c.suspectAfter()
}

func (c Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Stats is the dispatcher's operational summary — deliberately a
// separate artifact from the canonical reports, which must stay
// byte-identical to the unsharded run and therefore never carry
// scheduling detail.
type Stats struct {
	Units         int            `json:"units"`
	Cells         int            `json:"cells"`
	Retries       int            `json:"retries"`
	Speculated    int            `json:"speculated"`
	Duplicates    int            `json:"duplicate_results"`
	WorkersLost   int            `json:"workers_lost"`
	LocalUnits    int            `json:"local_units"`
	CellsByWorker map[string]int `json:"cells_by_worker"`
}

// unitState tracks one unit through dispatch, retry, speculation and
// completion.
type unitState struct {
	unit     Unit
	matrix   int                      // index into Config.Matrices
	owned    []int                    // cell indices the unit's shard owns, ascending
	cells    map[int]sweep.CellResult // cell index → first delivery
	attempts int                      // dispatch attempts (speculation not counted)
	done     bool                     // every owned cell collected
	local    bool                     // deferred to local fallback
}

func (u *unitState) complete() bool { return len(u.cells) == len(u.owned) }

// owns reports whether cell index i belongs to the unit's shard.
func (u *unitState) owns(i int) bool {
	j := sort.SearchInts(u.owned, i)
	return j < len(u.owned) && u.owned[j] == i
}

// workerState tracks one transport in the fleet.
type workerState struct {
	t         Transport
	name      string // unique dispatcher-side name
	outbound  chan *Msg
	alive     bool
	current   string // unit ID in flight ("" when idle)
	specFired bool   // speculation already triggered for the current assignment
}

// event is what reader and writer goroutines post to the loop.
type event struct {
	wi  int
	msg *Msg
	err error
}

// Run dispatches cfg.Matrices across the worker fleet and returns the
// merged per-matrix reports (suite order, byte-identical to a local
// unsharded run), the scheduling stats, and the first fatal error.
func Run(cfg Config, workers []Transport) ([]*sweep.Report, *Stats, error) {
	units, err := buildUnits(cfg)
	if err != nil {
		return nil, nil, err
	}
	stats := &Stats{Units: len(units), CellsByWorker: make(map[string]int)}

	d := &dispatcher{
		cfg:      cfg,
		units:    units,
		stats:    stats,
		byID:     make(map[string]*unitState, len(units)),
		events:   make(chan event, 4*len(workers)+4),
		loopDone: make(chan struct{}),
		live:     NewSuspector(cfg.suspectAfter(), cfg.suspectMax()),
		progress: NewSuspector(cfg.suspectAfter(), cfg.suspectMax()),
	}
	for _, u := range units {
		d.byID[u.unit.ID] = u
		d.pending = append(d.pending, u.unit.ID)
	}
	for i, t := range workers {
		w := &workerState{t: t, name: fmt.Sprintf("w%d:%s", i, t.Name), alive: true,
			outbound: make(chan *Msg, 8)}
		d.workers = append(d.workers, w)
	}

	if err := d.loop(); err != nil {
		d.shutdown()
		return nil, stats, err
	}
	d.shutdown()

	if err := d.runLocalUnits(); err != nil {
		return nil, stats, err
	}

	reports, err := d.mergeSuite()
	if err != nil {
		return nil, stats, err
	}
	return reports, stats, nil
}

// buildUnits validates the suite and splits each matrix into shard
// units.
func buildUnits(cfg Config) ([]*unitState, error) {
	names := make(map[string]bool, len(cfg.Matrices))
	var units []*unitState
	for mi := range cfg.Matrices {
		m := cfg.Matrices[mi]
		if names[m.Name] {
			return nil, fmt.Errorf("dispatch: duplicate matrix name %q (unit IDs embed the name, so names must be unique)", m.Name)
		}
		names[m.Name] = true
		cells, err := m.Cells()
		if err != nil {
			return nil, fmt.Errorf("dispatch: matrix %q: %w", m.Name, err)
		}
		total := len(cells)
		k := cfg.unitsPerMatrix()
		if k > total {
			k = total
		}
		if k < 1 {
			k = 1
		}
		for s := 0; s < k; s++ {
			shard := sweep.Shard{Index: s, Count: k}
			u := &unitState{
				unit: Unit{
					ID:         fmt.Sprintf("%s#%d/%d", m.Name, s, k),
					Matrix:     m,
					Shard:      shard,
					TotalCells: total,
				},
				matrix: mi,
				owned:  shard.OwnedIndices(total),
				cells:  make(map[int]sweep.CellResult),
			}
			units = append(units, u)
		}
	}
	return units, nil
}

type dispatcher struct {
	cfg      Config
	units    []*unitState
	byID     map[string]*unitState
	pending  []string // unit IDs awaiting (re-)assignment
	workers  []*workerState
	stats    *Stats
	events   chan event
	loopDone chan struct{}
	live     *Suspector // fed by every frame: is the worker alive?
	progress *Suspector // fed by cell frames: is the unit moving?
}

// post delivers an event to the loop unless the loop has exited.
func (d *dispatcher) post(e event) {
	select {
	case d.events <- e:
	case <-d.loopDone:
	}
}

// startWorker launches the reader and writer goroutines for worker wi.
func (d *dispatcher) startWorker(wi int) {
	w := d.workers[wi]
	go func() {
		for {
			m, err := ReadFrame(w.t.RW)
			if err != nil {
				d.post(event{wi: wi, err: err})
				return
			}
			d.post(event{wi: wi, msg: m})
		}
	}()
	go func() {
		for m := range w.outbound {
			if err := WriteFrame(w.t.RW, m); err != nil {
				d.post(event{wi: wi, err: fmt.Errorf("dispatch: write to %s: %w", w.name, err)})
				return
			}
		}
	}()
}

// loop is the dispatcher's single-threaded brain: every scheduling
// decision happens here, reacting to worker frames and suspector
// ticks. It returns when every unit is done or deferred to local
// execution, or with a fatal error.
func (d *dispatcher) loop() error {
	defer close(d.loopDone)
	//detlint:allow wallclock -- host-side dispatcher: suspicion timeouts are real-time by nature
	now := time.Now()
	for wi, w := range d.workers {
		d.live.Register(w.name, now)
		d.startWorker(wi)
		d.assign(wi)
	}

	tick := time.NewTicker(d.cfg.suspectAfter() / 4)
	defer tick.Stop()

	for {
		if done, err := d.checkProgress(); done || err != nil {
			return err
		}
		select {
		case e := <-d.events:
			//detlint:allow wallclock -- host-side dispatcher: suspicion timeouts are real-time by nature
			d.handle(e, time.Now())
		case <-tick.C:
			//detlint:allow wallclock -- host-side dispatcher: suspicion timeouts are real-time by nature
			d.tickSuspectors(time.Now())
		}
	}
}

// checkProgress decides whether the loop can exit (all units settled)
// or must fail (work left, fleet gone, no fallback). When the fleet is
// gone but fallback is allowed, every unsettled unit is deferred to
// local execution.
func (d *dispatcher) checkProgress() (bool, error) {
	settled := 0
	for _, u := range d.units {
		if u.done || u.local {
			settled++
		}
	}
	if settled == len(d.units) {
		return true, nil
	}
	for _, w := range d.workers {
		if w.alive {
			return false, nil
		}
	}
	// Fleet is gone with work outstanding.
	if !d.cfg.LocalFallback {
		return false, fmt.Errorf("dispatch: all %d workers lost with %d units outstanding (local fallback disabled)", len(d.workers), len(d.units)-settled)
	}
	for _, u := range d.units {
		if !u.done && !u.local {
			u.local = true
			d.cfg.logf("dispatch: deferring %s to local execution (fleet gone)", u.unit.ID)
		}
	}
	return true, nil
}

// handle processes one worker event inside the loop.
func (d *dispatcher) handle(e event, now time.Time) {
	w := d.workers[e.wi]
	if !w.alive {
		return // late frames from a dismissed worker
	}
	if e.err != nil {
		why := "connection lost"
		if _, ok := e.err.(*ErrCorruptFrame); ok {
			why = "corrupt frame"
		} else if e.err != io.EOF {
			why = e.err.Error()
		}
		d.dismiss(e.wi, why)
		return
	}
	d.live.Heartbeat(w.name, now)
	switch e.msg.Kind {
	case KindHello:
		d.cfg.logf("dispatch: %s says hello (%s)", w.name, e.msg.Worker)
	case KindHeartbeat:
		// live.Heartbeat above covered it.
	case KindCell:
		d.handleCell(e.wi, e.msg, now)
	case KindDone:
		d.handleDone(e.wi, e.msg)
	case KindError:
		u := d.byID[e.msg.UnitID]
		d.cfg.logf("dispatch: %s failed %s: %s", w.name, e.msg.UnitID, e.msg.Detail)
		if u != nil && !u.done && !u.local {
			d.requeue(u, "worker reported failure")
		}
		if w.current == e.msg.UnitID {
			w.current = ""
			w.specFired = false
		}
		d.assign(e.wi)
	}
}

// handleCell records one streamed cell result, discarding duplicates by
// (unit, cell index) identity and treating content mismatches, and
// indices the unit does not own, as corruption.
func (d *dispatcher) handleCell(wi int, m *Msg, now time.Time) {
	w := d.workers[wi]
	if m.Cell == nil {
		d.dismiss(wi, "cell frame without a cell")
		return
	}
	d.progress.Heartbeat(w.name, now)
	u := d.byID[m.UnitID]
	if u == nil {
		d.dismiss(wi, fmt.Sprintf("cell for unknown unit %q", m.UnitID))
		return
	}
	if !u.owns(m.Cell.Index) {
		d.dismiss(wi, fmt.Sprintf("cell %d is not owned by %s", m.Cell.Index, m.UnitID))
		return
	}
	if u.done {
		d.stats.Duplicates++ // late result from a speculated or slow attempt
		return
	}
	if prev, dup := u.cells[m.Cell.Index]; dup {
		if !sameCell(&prev, m.Cell) {
			// Same deterministic cell, different bytes: one of the two
			// deliveries is corrupt. Kill the later messenger; the unit
			// keeps the first delivery and a retry will arbitrate.
			d.dismiss(wi, fmt.Sprintf("cell %d of %s diverges from earlier delivery", m.Cell.Index, m.UnitID))
			return
		}
		d.stats.Duplicates++
		return
	}
	u.cells[m.Cell.Index] = *m.Cell
	d.stats.Cells++
	d.stats.CellsByWorker[w.name]++
}

// sameCell reports whether two deliveries of one cell carry the same
// bytes.
func sameCell(a, b *sweep.CellResult) bool {
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(ja, jb)
}

// handleDone finalizes a unit when its coverage is complete.
func (d *dispatcher) handleDone(wi int, m *Msg) {
	w := d.workers[wi]
	u := d.byID[m.UnitID]
	if u == nil {
		d.dismiss(wi, fmt.Sprintf("done for unknown unit %q", m.UnitID))
		return
	}
	if w.current == m.UnitID {
		w.current = ""
		w.specFired = false
	}
	if !u.done && !u.local {
		if u.complete() {
			d.finish(u)
		} else {
			// Done without full coverage: frames were lost (e.g. the
			// corrupt-frame injector swallowed one). Retry.
			d.requeue(u, fmt.Sprintf("done with %d/%d cells", len(u.cells), len(u.owned)))
		}
	}
	d.assign(wi)
}

// finish settles a unit whose every owned cell has arrived.
func (d *dispatcher) finish(u *unitState) {
	u.done = true
	// A speculated twin may still be queued: drop it.
	d.dropPending(u.unit.ID)
	d.cfg.logf("dispatch: %s complete (%d cells)", u.unit.ID, len(u.cells))
}

// requeue schedules a unit for another dispatch attempt, deferring to
// local execution once retries are exhausted.
func (d *dispatcher) requeue(u *unitState, why string) {
	if u.done || u.local {
		return
	}
	d.stats.Retries++
	if u.attempts > d.cfg.maxRetries() {
		// Retries exhausted: settle the unit as local. With fallback
		// enabled runLocalUnits executes it in-process; with fallback
		// disabled runLocalUnits turns it into the run's error.
		u.local = true
		d.dropPending(u.unit.ID)
		d.cfg.logf("dispatch: %s exhausted %d retries (%s), deferring to local execution", u.unit.ID, d.cfg.maxRetries(), why)
		return
	}
	d.cfg.logf("dispatch: requeueing %s (%s)", u.unit.ID, why)
	d.enqueue(u.unit.ID)
	d.assignAll()
}

// enqueue adds a unit ID to pending unless already queued.
func (d *dispatcher) enqueue(id string) {
	for _, p := range d.pending {
		if p == id {
			return
		}
	}
	d.pending = append(d.pending, id)
}

func (d *dispatcher) dropPending(id string) {
	kept := d.pending[:0]
	for _, p := range d.pending {
		if p != id {
			kept = append(kept, p)
		}
	}
	d.pending = kept
}

// assign hands worker wi the next assignable pending unit, if it is
// idle, trusted and alive.
func (d *dispatcher) assign(wi int) {
	w := d.workers[wi]
	if !w.alive || w.current != "" {
		return
	}
	//detlint:allow wallclock -- host-side dispatcher: suspicion timeouts are real-time by nature
	if d.live.Suspected(w.name, time.Now()) {
		return // no new work for a suspected worker
	}
	for qi, id := range d.pending {
		u := d.byID[id]
		if u == nil || u.done || u.local {
			continue
		}
		if d.runningOn(id, wi) {
			continue // don't hand a worker the unit it already runs
		}
		d.pending = append(d.pending[:qi], d.pending[qi+1:]...)
		u.attempts++
		w.current = id
		w.specFired = false
		//detlint:allow wallclock -- host-side dispatcher: suspicion timeouts are real-time by nature
		d.progress.Register(w.name, time.Now())
		unit := u.unit
		w.outbound <- &Msg{Kind: KindUnit, Unit: &unit}
		d.cfg.logf("dispatch: assigned %s to %s (attempt %d)", id, w.name, u.attempts)
		return
	}
	d.progress.Forget(w.name) // idle workers aren't stragglers
}

// assignAll offers pending work to every idle worker.
func (d *dispatcher) assignAll() {
	for wi := range d.workers {
		d.assign(wi)
	}
}

// runningOn reports whether unit id is currently assigned to worker wi.
func (d *dispatcher) runningOn(id string, wi int) bool {
	return d.workers[wi].current == id
}

// dismiss hard-kills a worker and re-shares its in-flight unit across
// the survivors.
func (d *dispatcher) dismiss(wi int, why string) {
	w := d.workers[wi]
	if !w.alive {
		return
	}
	w.alive = false
	d.stats.WorkersLost++
	d.live.Forget(w.name)
	d.progress.Forget(w.name)
	d.cfg.logf("dispatch: dismissing %s: %s", w.name, why)
	close(w.outbound)
	w.t.RW.Close()
	if w.t.Kill != nil {
		w.t.Kill()
	}
	if w.current != "" {
		u := d.byID[w.current]
		w.current = ""
		if u != nil {
			d.requeue(u, "worker "+why)
		}
	}
}

// tickSuspectors advances suspicion: silent workers are speculated
// around, then dismissed when silence outlasts SuspectMax.
func (d *dispatcher) tickSuspectors(now time.Time) {
	for wi, w := range d.workers {
		if !w.alive {
			continue
		}
		if d.live.Suspected(w.name, now) && d.live.SilentFor(w.name, now) > d.cfg.suspectMax() {
			d.dismiss(wi, fmt.Sprintf("silent for %s (suspicion hardened)", d.live.SilentFor(w.name, now).Round(time.Millisecond)))
			continue
		}
		if w.current == "" || !d.cfg.Speculate || w.specFired {
			continue
		}
		// Straggler detection: the worker holds a unit but cells have
		// stopped arriving. Speculatively queue the unit for a peer —
		// the attempt counter is untouched (nothing failed), and the
		// original may still win the race.
		if d.progress.Suspected(w.name, now) || d.live.Suspected(w.name, now) {
			u := d.byID[w.current]
			if u != nil && !u.done && !u.local {
				w.specFired = true
				d.stats.Speculated++
				d.cfg.logf("dispatch: %s is straggling on %s, speculating", w.name, u.unit.ID)
				d.enqueue(u.unit.ID)
				d.assignAll()
			}
		}
	}
}

// shutdown tells every surviving worker to exit and tears the fleet
// down.
func (d *dispatcher) shutdown() {
	for _, w := range d.workers {
		if !w.alive {
			continue
		}
		w.alive = false
		select {
		case w.outbound <- &Msg{Kind: KindShutdown}:
		default:
		}
		close(w.outbound)
		// Give the writer a beat to flush the shutdown frame, then cut
		// the transport; workers also exit on EOF, so this is belt and
		// braces, not a protocol step.
		rw, kill := w.t.RW, w.t.Kill
		go func() {
			time.Sleep(100 * time.Millisecond)
			rw.Close()
			if kill != nil {
				kill()
			}
		}()
	}
}

// runLocalUnits executes every unit deferred to local fallback,
// in-process, via the same sweep entry points the workers use.
func (d *dispatcher) runLocalUnits() error {
	for _, u := range d.units {
		if u.done || !u.local {
			continue
		}
		if !d.cfg.LocalFallback {
			return fmt.Errorf("dispatch: unit %s undispatchable and local fallback disabled", u.unit.ID)
		}
		d.cfg.logf("dispatch: running %s locally", u.unit.ID)
		rep, err := sweep.Run(d.cfg.Matrices[u.matrix], sweep.Options{
			Workers: d.cfg.LocalPool,
			Shard:   u.unit.Shard,
		})
		if err != nil {
			return fmt.Errorf("dispatch: local run of %s: %w", u.unit.ID, err)
		}
		for _, c := range rep.Cells {
			u.cells[c.Index] = c
		}
		u.done = true
		d.stats.LocalUnits++
		d.stats.Cells += len(rep.Cells)
		d.stats.CellsByWorker["local"] += len(rep.Cells)
	}
	return nil
}

// mergeSuite builds the per-matrix reports, suite order, from the
// units' collected cells. Each report is built against the
// dispatcher's own matrix, not a wire copy: the local struct is the
// byte-identity reference.
func (d *dispatcher) mergeSuite() ([]*sweep.Report, error) {
	cells := make([][]sweep.CellResult, len(d.cfg.Matrices))
	totals := make([]int, len(d.cfg.Matrices))
	for _, u := range d.units {
		if !u.done {
			return nil, fmt.Errorf("dispatch: unit %s never completed", u.unit.ID)
		}
		for _, i := range u.owned {
			cells[u.matrix] = append(cells[u.matrix], u.cells[i])
		}
		totals[u.matrix] = u.unit.TotalCells
	}
	reports := make([]*sweep.Report, 0, len(d.cfg.Matrices))
	for mi, m := range d.cfg.Matrices {
		rep, err := sweep.NewReport(m, totals[mi], cells[mi])
		if err != nil {
			return nil, err
		}
		reports = append(reports, rep)
	}
	return reports, nil
}
