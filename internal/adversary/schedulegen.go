package adversary

import (
	"fmt"

	"fdgrid/internal/ids"
	"fdgrid/internal/sim"
)

// This file makes the adversary generative: instead of hand-enumerating
// crash schedules, a sweep declares a Family — a *kind* of adversary
// behaviour plus its knobs — and the ScheduleGen expands it into
// concrete, named schedules. Expansion is a pure function of
// (family, n, t): the same declaration always yields the same
// schedules, on any machine, so sweep reports over generated
// adversaries stay byte-reproducible and shardable.
//
// The families are the recurring shapes of the paper's adversary
// arguments: staggered and clustered crashes (the failure patterns the
// grid classes are quantified over), cascades (worst-case sequential
// loss), and the message-hold scripts of the irreducibility proofs —
// partitions and silent regions, the "easy impossibility" executions in
// which a live region is indistinguishable from a crashed one.

// Family kinds understood by ScheduleGen.Expand.
const (
	// KindStaggered crashes Count processes one after another, spaced
	// roughly Spacing ticks apart from Start (times are jittered per
	// variant, victims drawn per variant).
	KindStaggered = "staggered"
	// KindClustered crashes a contiguous identity block of Count
	// processes simultaneously at Start.
	KindClustered = "clustered"
	// KindCascade crashes Count processes with geometrically growing
	// gaps: crash i falls at Start + Spacing·(2^i − 1).
	KindCascade = "cascade"
	// KindPartition splits Π into a drawn block of Count processes and
	// the rest, and holds every message crossing the cut (both
	// directions) sent during [Start, Start+Window) until the window
	// closes. No process crashes.
	KindPartition = "partition"
	// KindSilence draws a region E of Count processes and holds every
	// message E sends during [Start, Start+Window) until the window
	// closes — the run-R′ ingredient of the Theorem 9 construction,
	// as a reusable sweep dimension. No process crashes.
	KindSilence = "silence"
)

// Family declares one generated adversary dimension point: a schedule
// kind plus its knobs. The zero knobs default per kind; Variants is how
// many concrete schedules the family expands into (default 1, at most
// MaxVariants), each drawn deterministically from Seed. Every tick a
// family generates must fall before sim.Never.
type Family struct {
	Kind     string   `json:"kind"`
	Count    int      `json:"count,omitempty"`    // crashes / block size; 0 = kind default
	Variants int      `json:"variants,omitempty"` // schedules generated; 0 = 1
	Seed     int64    `json:"seed,omitempty"`     // draw seed (victims, jitter)
	Start    sim.Time `json:"start,omitempty"`    // first event tick; 0 = 100
	Spacing  sim.Time `json:"spacing,omitempty"`  // staggered/cascade gap; 0 = 200
	Window   sim.Time `json:"window,omitempty"`   // partition/silence length; 0 = 1000
}

// MaxVariants bounds Family.Variants. Every variant becomes its own
// sweep pattern, so a count this large is already far past any
// sweepable matrix; the bound keeps a hostile spec from sizing the
// expansion.
const MaxVariants = 1024

// Crash schedules one process crash.
type Crash struct {
	P  ids.ProcID
	At sim.Time
}

// Schedule is one concrete generated adversary: named crashes plus
// scripted holds, ready to be turned into a sweep crash pattern.
type Schedule struct {
	Name    string
	Crashes []Crash
	Holds   []sim.Hold
}

// ScheduleGen expands families against one system size. The generator
// carries no hidden state: every Expand draws only from the family's
// seed and the size, so expansion order does not matter.
type ScheduleGen struct {
	N, T int
}

// NewScheduleGen builds a generator for a system of n processes with
// resilience bound t.
func NewScheduleGen(n, t int) ScheduleGen { return ScheduleGen{N: n, T: t} }

// Expand turns one family into its concrete schedules. It rejects a
// generator size outside sim's bounds, a family with more than
// MaxVariants variants, and one whose ticks would reach sim.Never.
func (g ScheduleGen) Expand(f Family) ([]Schedule, error) {
	if g.N < 1 || g.N > ids.MaxProcs || g.T < 0 || g.T >= g.N {
		return nil, fmt.Errorf("adversary: system size n=%d, t=%d out of range (1 ≤ n ≤ %d, 0 ≤ t < n)", g.N, g.T, ids.MaxProcs)
	}
	variants := f.Variants
	if variants <= 0 {
		variants = 1
	}
	if variants > MaxVariants {
		return nil, fmt.Errorf("adversary: family %q asks for %d variants, at most %d", f.Kind, variants, MaxVariants)
	}
	start := f.Start
	if start <= 0 {
		start = 100
	}
	spacing := f.Spacing
	if spacing <= 0 {
		spacing = 200
	}
	window := f.Window
	if window <= 0 {
		window = 1000
	}
	count := f.Count
	switch f.Kind {
	case KindStaggered, KindClustered, KindCascade:
		if count <= 0 {
			count = g.T
		}
		if count < 1 || count > g.T {
			return nil, fmt.Errorf("adversary: family %q crashes %d processes, allowed 1..t=%d", f.Kind, count, g.T)
		}
	case KindPartition:
		if count <= 0 {
			count = g.N / 2
		}
		if count < 1 || count >= g.N {
			return nil, fmt.Errorf("adversary: partition block of %d out of range 1..%d", count, g.N-1)
		}
	case KindSilence:
		if count <= 0 {
			count = g.T
		}
		if count < 1 || count >= g.N {
			return nil, fmt.Errorf("adversary: silent region of %d out of range 1..%d", count, g.N-1)
		}
	default:
		return nil, fmt.Errorf("adversary: unknown schedule family kind %q", f.Kind)
	}
	if !ticksFit(f.Kind, count, start, spacing, window) {
		return nil, fmt.Errorf("adversary: family %q (count %d, start %d, spacing %d, window %d) schedules ticks at or past sim.Never", f.Kind, count, start, spacing, window)
	}

	out := make([]Schedule, 0, variants)
	for v := 0; v < variants; v++ {
		r := newDraw(f.Seed, int64(v), int64(g.N), int64(g.T), kindSalt(f.Kind))
		// The seed is part of the name: two same-kind families in one
		// matrix must yield distinct pattern labels, or report consumers
		// grouping by pattern would silently merge their cells.
		s := Schedule{Name: fmt.Sprintf("%s-c%d-s%d-v%d", f.Kind, count, f.Seed, v)}
		switch f.Kind {
		case KindStaggered:
			for i, p := range r.draw(count, g.N) {
				jitter := sim.Time(r.intn(int(spacing)/2 + 1))
				s.Crashes = append(s.Crashes, Crash{P: p, At: start + sim.Time(i)*spacing + jitter})
			}
		case KindClustered:
			base := 1 + r.intn(g.N-count+1)
			for i := 0; i < count; i++ {
				s.Crashes = append(s.Crashes, Crash{P: ids.ProcID(base + i), At: start})
			}
		case KindCascade:
			gap := sim.Time(1)
			at := start
			for _, p := range r.draw(count, g.N) {
				s.Crashes = append(s.Crashes, Crash{P: p, At: at})
				at += spacing * gap
				gap *= 2
			}
		case KindPartition:
			block := ids.NewSet(r.draw(count, g.N)...)
			rest := ids.FullSet(g.N).Minus(block)
			s.Holds = []sim.Hold{
				{From: block, To: rest, Since: start, Until: start + window},
				{From: rest, To: block, Since: start, Until: start + window},
			}
		case KindSilence:
			region := ids.NewSet(r.draw(count, g.N)...)
			s.Holds = []sim.Hold{
				{From: region, To: ids.FullSet(g.N), Since: start, Until: start + window},
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// ExpandAll expands a family list in order into one schedule list. Two
// families expanding to the same schedule name (same kind, count and
// seed, differing only in timing knobs) would merge distinct pattern
// dimension points in report consumers grouping by name; that is
// rejected here rather than silently conflated.
func (g ScheduleGen) ExpandAll(fams []Family) ([]Schedule, error) {
	var out []Schedule
	seen := make(map[string]bool)
	for _, f := range fams {
		ss, err := g.Expand(f)
		if err != nil {
			return nil, err
		}
		for _, s := range ss {
			if seen[s.Name] {
				return nil, fmt.Errorf("adversary: schedule families expand to duplicate name %q — give same-kind families distinct seeds", s.Name)
			}
			seen[s.Name] = true
		}
		out = append(out, ss...)
	}
	return out, nil
}

// ticksFit reports whether every tick of a family's schedules falls
// before sim.Never, computing its latest tick with overflow-checked
// arithmetic: the last staggered crash with the largest jitter, the
// last cascade crash at start + spacing·(2^(count−1) − 1), the
// clustered crash tick, or the end of a hold window. The arguments are
// the defaulted knobs, all positive.
func ticksFit(kind string, count int, start, spacing, window sim.Time) bool {
	var span sim.Time
	ok := true
	switch kind {
	case KindStaggered:
		span, ok = mulTicks(sim.Time(count-1), spacing)
		span, ok = addTicks(span, spacing/2, ok)
	case KindCascade:
		for gap, i := sim.Time(1), 1; ok && i < count; gap, i = 2*gap, i+1 {
			var step sim.Time
			step, ok = mulTicks(spacing, gap)
			span, ok = addTicks(span, step, ok)
		}
	case KindPartition, KindSilence:
		span = window
	}
	_, ok = addTicks(start, span, ok)
	return ok
}

// mulTicks returns a·b and whether it stays below sim.Never (a, b ≥ 0).
func mulTicks(a, b sim.Time) (sim.Time, bool) {
	if a != 0 && b > (sim.Never-1)/a {
		return 0, false
	}
	return a * b, true
}

// addTicks returns a+b and whether ok holds and the sum stays below
// sim.Never (a, b ≥ 0).
func addTicks(a, b sim.Time, ok bool) (sim.Time, bool) {
	if !ok || a >= sim.Never || b >= sim.Never-a {
		return 0, false
	}
	return a + b, true
}

// kindSalt folds a kind name into the draw seed so two families
// differing only in kind draw different victims.
func kindSalt(kind string) int64 {
	var h int64 = 17
	for i := 0; i < len(kind); i++ {
		h = h*31 + int64(kind[i])
	}
	return h
}

// draw is the generator's deterministic randomness: a splitmix64
// stream seeded by folding the family parameters. Identical inputs
// yield identical streams on every platform — the property the
// byte-reproducible reports rest on.
type draw struct {
	state uint64
}

func newDraw(keys ...int64) *draw {
	h := uint64(0x243f6a8885a308d3)
	for _, k := range keys {
		h = smix(h ^ uint64(k))
	}
	return &draw{state: h}
}

func smix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (r *draw) next() uint64 {
	r.state = smix(r.state)
	return r.state
}

// intn returns an unbiased value in [0, n): draws falling in the
// 2^64 mod n remainder zone are rejected and redrawn (the stream
// equivalent of fd's boundedDraw) — a plain next()%n over-represents
// low residues, a systematic skew once n grows toward MaxProcs = 256
// and the draw feeds every generated victim set and scope.
func (r *draw) intn(n int) int {
	if n <= 1 {
		return 0
	}
	un := uint64(n)
	reject := -un % un
	for {
		if v := r.next(); v >= reject {
			return int(v % un)
		}
	}
}

// draw picks count distinct process ids from 1..n (a partial
// Fisher–Yates over the identity space), in draw order.
func (r *draw) draw(count, n int) []ids.ProcID {
	pool := make([]ids.ProcID, n)
	for i := range pool {
		pool[i] = ids.ProcID(i + 1)
	}
	out := make([]ids.ProcID, count)
	for i := 0; i < count; i++ {
		j := i + r.intn(n-i)
		pool[i], pool[j] = pool[j], pool[i]
		out[i] = pool[i]
	}
	return out
}
