package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// median returns the middle value of xs (the mean of the middle two for
// an even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// percentileLadder is the set of percentiles a timing may be reported at.
var percentileLadder = []float64{50, 90, 95, 99, 99.9, 99.99}

// minBeyondTail is how many samples must lie beyond a tail percentile
// for it to be reported: fewer, and the "tail" is one or two outliers.
const minBeyondTail = 10

// rank is the 1-based nearest-rank position of percentile p among n
// sorted samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentile picks the highest ladder percentile that leaves at
// least minBeyondTail of n samples beyond it. ok is false when even the
// median does not (n < 20), and the tail is then not reported.
func tailPercentile(n int) (p float64, ok bool) {
	for _, q := range percentileLadder {
		if n-rank(q, n) >= minBeyondTail {
			p, ok = q, true
		}
	}
	return p, ok
}

// percentile returns the nearest-rank percentile p of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public entry point. Times are nanoseconds since the run's
// epoch; Parent is 0 for a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps a traced run's spans in memory until the run ends. A nil
// *spanLog is an untraced run: every method is a no-op.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// at converts a wall-clock instant to the log's timeline.
func (l *spanLog) at(t time.Time) int64 { return t.Sub(l.epoch).Nanoseconds() }

// add records a finished span and returns its ID (0 when untraced).
func (l *spanLog) add(parent int, layer, name string, start, end time.Time) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Start: l.at(start), End: l.at(end)})
	return id
}

// reserve allocates an ID for a span whose end is not known yet, so its
// children can name it as their parent; finish fills it in.
func (l *spanLog) reserve(parent int, layer, name string) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Layer: layer, Name: name})
	return id
}

func (l *spanLog) finish(id int, start, end time.Time) {
	if l == nil || id == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].Start, l.spans[id-1].End = l.at(start), l.at(end)
}

// spanByID returns a recorded span.
func (l *spanLog) spanByID(id int) span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.spans[id-1]
}

// snapshot copies the spans recorded so far.
func (l *spanLog) snapshot() []span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Children may overlap each other (pool workers run cells
// side by side) and may stick out of the parent; each instant of the
// parent is subtracted at most once.
func selfTime(parent span, children []span) int64 {
	type iv struct{ s, e int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		s, e := max(c.Start, parent.Start), min(c.End, parent.End)
		if e > s {
			ivs = append(ivs, iv{s, e})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s < ivs[j].s })
	var covered int64
	for i := 0; i < len(ivs); {
		s, e := ivs[i].s, ivs[i].e
		j := i + 1
		for ; j < len(ivs) && ivs[j].s <= e; j++ {
			e = max(e, ivs[j].e)
		}
		covered += e - s
		i = j
	}
	return parent.End - parent.Start - covered
}

// barrierIdle is the worker time a pool of the given size loses at
// matrix barriers: summed over matrices, matrix wall × pool − the busy
// time of that matrix's cells. A matrix with fewer cells than workers,
// or one long cell at its end, leaves workers idle until the next
// matrix starts.
func barrierIdle(walls, busy []int64, pool int) int64 {
	var idle int64
	for i := range walls {
		idle += max(0, walls[i]*int64(pool)-busy[i])
	}
	return idle
}
