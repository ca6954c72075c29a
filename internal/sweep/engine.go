package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fdgrid/internal/agreement"
	"fdgrid/internal/sim"
	"fdgrid/internal/trace"
)

// Runner executes one cell and fills in its result. Implementations must
// be pure: build the cell's own sim.System, run it, derive the verdict —
// no shared mutable state, so cells parallelize freely.
type Runner func(*Cell, *CellResult)

var (
	//detlint:allow runtoken -- the runner registry is host-side process-global state (package init + tests), not run state
	runnersMu sync.RWMutex
	runners   = make(map[string]Runner)
)

// Register installs a cell runner under a protocol name. Runners ship in
// runners.go; tests may register their own.
func Register(name string, r Runner) {
	runnersMu.Lock()
	defer runnersMu.Unlock()
	if _, dup := runners[name]; dup {
		panic(fmt.Sprintf("sweep: runner %q registered twice", name))
	}
	runners[name] = r
}

// Protocols lists the registered protocol names, sorted.
func Protocols() []string {
	runnersMu.RLock()
	defer runnersMu.RUnlock()
	out := make([]string, 0, len(runners))
	for name := range runners {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func runnerFor(name string) (Runner, bool) {
	runnersMu.RLock()
	defer runnersMu.RUnlock()
	r, ok := runners[name]
	return r, ok
}

// Shard selects a deterministic slice of a matrix's cells: shard i of m
// owns exactly the cells whose index ≡ i (mod m). The zero value means
// "run everything". m independent invocations with shards 0..m−1
// together cover the matrix exactly once, and MergeReports recombines
// their reports into the bytes the unsharded run would have produced —
// the mechanism behind CI fan-out and multi-machine sweeps.
type Shard struct {
	Index, Count int
}

// enabled reports whether the shard actually restricts the run.
func (s Shard) enabled() bool { return s.Count > 0 }

func (s Shard) validate() error {
	if !s.enabled() {
		return nil
	}
	if s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("sweep: shard %d/%d out of range", s.Index, s.Count)
	}
	return nil
}

// Options configures a sweep run.
type Options struct {
	// Workers is the worker-pool size; 0 means GOMAXPROCS.
	Workers int
	// Runner overrides the registry lookup (tests).
	Runner Runner
	// Shard restricts the run to one deterministic slice of the cells
	// (zero value: run all).
	Shard Shard
	// Context, when non-nil, bounds the run: once it is cancelled the
	// pool stops taking new cells (cells already running finish — a
	// cell is a deterministic unit and is never interrupted mid-run),
	// every worker goroutine exits, and Run returns the completed
	// cells plus the context's error. The partial report is internally
	// consistent (tallies cover exactly the returned cells) but which
	// cells completed is scheduling-dependent — a cancelled run is an
	// abort path, not a canonical artifact.
	Context context.Context
	// OnResult, when set, is called once per completed cell as it
	// finishes, before Run returns. Calls arrive concurrently from the
	// pool workers and in completion order (scheduling-dependent); the
	// callback must be safe for concurrent use. The report itself stays
	// index-ordered and deterministic regardless. This is the streaming
	// hook the distributed dispatcher's workers use to ship CellResults
	// over the wire as they land.
	OnResult func(CellResult)
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Run expands the matrix and executes every cell on a worker pool. Each
// worker runs cells to completion on isolated sim.System instances; the
// result slice is ordered by cell index, so the aggregated report is
// identical whatever the worker count. A panicking cell (a protocol bug)
// is contained and reported as an errored cell, not a crashed sweep.
// When opt.Context is cancelled mid-run, Run returns the partial report
// of the cells that completed together with the context's error — the
// one case where a non-nil error comes with a non-nil report.
func Run(m Matrix, opt Options) (*Report, error) {
	all, err := m.Cells()
	if err != nil {
		return nil, err
	}
	if err := opt.Shard.validate(); err != nil {
		return nil, err
	}
	cells := all
	var shardMeta *ShardMeta
	if opt.Shard.enabled() {
		owned := make([]Cell, 0, len(all)/opt.Shard.Count+1)
		for _, c := range all {
			if c.Index%opt.Shard.Count == opt.Shard.Index {
				owned = append(owned, c)
			}
		}
		cells = owned
		shardMeta = &ShardMeta{Index: opt.Shard.Index, Count: opt.Shard.Count, TotalCells: len(all)}
	}
	runner := opt.Runner
	if runner == nil {
		r, ok := runnerFor(m.Protocol)
		if !ok {
			return nil, fmt.Errorf("sweep: no runner registered for protocol %q (have %v)", m.Protocol, Protocols())
		}
		runner = r
	}

	//detlint:allow wallclock -- sweep report timing: WallNS is json:"-" and never reaches canonical bytes
	start := time.Now()
	results := make([]CellResult, len(cells))
	// completed[i] is written only by the worker that ran cell i and
	// read after wg.Wait (which publishes it); with no Context every
	// cell completes and the slice is all-true.
	completed := make([]bool, len(cells))
	// Lock-free work distribution: Add hands each worker a distinct
	// index. Which worker runs which cell stays scheduling-dependent —
	// but results[i] is written only by the worker that took i, and the
	// report is assembled in index order after wg.Wait, so the output is
	// deterministic regardless.
	//detlint:allow runtoken -- the worker pool's lock-free work counter; host-side, outside any run
	var next atomic.Int64
	take := func() int {
		if opt.Context != nil && opt.Context.Err() != nil {
			return -1
		}
		i := int(next.Add(1)) - 1
		if i >= len(cells) {
			return -1
		}
		return i
	}

	workers := opt.workers()
	if workers > len(cells) {
		workers = len(cells)
	}
	//detlint:allow runtoken -- joins the host-side worker pool before assembling the report
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//detlint:allow runtoken -- the documented host-side worker pool: each worker runs whole cells on isolated Systems
		go func() {
			defer wg.Done()
			buf := takeBuffers()
			defer freeBuffers(buf)
			for {
				i := take()
				if i < 0 {
					return
				}
				cells[i].buf, cells[i].arena = &buf.net, &buf.rounds
				results[i] = runCell(runner, &cells[i])
				completed[i] = true
				if opt.OnResult != nil {
					opt.OnResult(results[i])
				}
			}
		}()
	}
	wg.Wait()

	var runErr error
	if opt.Context != nil && opt.Context.Err() != nil {
		// Cancelled: keep the completed prefix only, in index order.
		runErr = opt.Context.Err()
		kept := results[:0]
		for i := range results {
			if completed[i] {
				kept = append(kept, results[i])
			}
		}
		results = kept
	}

	//detlint:allow wallclock -- sweep report timing: WallNS is json:"-" and never reaches canonical bytes
	rep := &Report{Matrix: m, Cells: results, Shard: shardMeta, WallNS: time.Since(start).Nanoseconds()}
	for i := range results {
		switch results[i].Verdict {
		case Pass:
			rep.Passed++
		case Fail:
			rep.Failed++
		case ConfigError:
			rep.ConfigErrors++
		default:
			rep.Errored++
		}
	}
	return rep, runErr
}

// workerBuffers is the reusable storage a pool worker lends to every
// cell it runs: the simulator's network buffers (sim.Buffers) and the
// k-set protocol's round boxes (agreement.RoundArena).
type workerBuffers struct {
	net    sim.Buffers
	rounds agreement.RoundArena
}

// spareBuffers is the process-wide free list of worker buffers. Each
// pool worker takes one when it starts, lends it to every cell it runs
// and frees it when it exits, so the capacity a large cell grew carries
// over to later cells, later matrices and later sweepd units in the
// same process. The list holds at most GOMAXPROCS entries — as many as
// the default pool runs at once — so a burst of wider pools leaves no
// more than that retained.
var spareBuffers = make(chan *workerBuffers, runtime.GOMAXPROCS(0))

// takeBuffers returns spare worker buffers, or fresh empty ones.
func takeBuffers() *workerBuffers {
	select {
	case b := <-spareBuffers:
		return b
	default:
		return new(workerBuffers)
	}
}

// freeBuffers returns b to the free list, dropping it when the list is
// full.
func freeBuffers(b *workerBuffers) {
	select {
	case spareBuffers <- b:
	default:
	}
}

// runCell executes one cell, containing panics as errored results.
// When the cell asks for tracing, the recorder is created here — owned
// by the cell for its whole run, so its digest lands in the result even
// if the runner panics mid-cell. The level was validated at Cells()
// expansion (Replay validates its own), so a bad level reads as Off.
func runCell(runner Runner, c *Cell) (res CellResult) {
	res = CellResult{
		Index:   c.Index,
		Seed:    c.Seed,
		Size:    c.Size,
		Pattern: c.Pattern.Name,
		Combo:   c.Combo,
		Oracle:  c.Oracle.Name,
		Verdict: Pass,
	}
	if lvl, err := trace.ParseLevel(c.TraceLevel); err == nil && lvl != trace.Off {
		c.rec = trace.New(lvl)
	}
	//detlint:allow wallclock -- per-cell report timing: WallNS is json:"-" and never reaches canonical bytes
	start := time.Now()
	defer func() {
		//detlint:allow wallclock -- per-cell report timing: WallNS is json:"-" and never reaches canonical bytes
		res.WallNS = time.Since(start).Nanoseconds()
		if r := recover(); r != nil {
			res.Verdict = Errored
			res.Detail = fmt.Sprintf("panic: %v", r)
		}
		if c.rec != nil {
			res.TraceDigest = c.rec.Digest()
			res.TraceEvents = c.rec.Len()
		}
	}()
	runner(c, &res)
	return res
}
