package sim

import "sort"

// Metrics counts message traffic per tag. Counters are plain int64
// slices indexed by Tag and owned by the run in lockstep: they are
// bumped from process mains (sends) and the tick phases (deliveries,
// drops), and the run token serializes all of those, so the bump path
// is a bare array index — no locks, no atomics, no string hashing.
//
// Ownership contract (this replaces the old "all methods are safe for
// concurrent use" claim): call the live readers — Sent, TotalSent,
// Snapshot — from code holding the run token, i.e. from process mains,
// stop predicates, OnTick/OnAdvance samplers, or any time after Run has
// returned. Do not call them from an unrelated goroutine while the run
// is in progress. Run returns only after stopping every process
// coroutine, so post-run reads from Run's caller are race-clean.
type Metrics struct {
	sent      []int64 // indexed by Tag; grown on demand
	delivered []int64 // same length as sent, grown with it
	dropped   []int64 // same length as sent, grown with it
	totalSent int64
}

func newMetrics() *Metrics {
	// Size to the tags interned so far: protocol packages intern theirs
	// in var declarations, so by the time a System exists the slices
	// almost always have their final size and the grow path never runs.
	n := internedTags() + 8
	return &Metrics{
		sent:      make([]int64, n),
		delivered: make([]int64, n),
		dropped:   make([]int64, n),
	}
}

// grown returns a copy of s with room for tag and a few more.
func grown(s []int64, tag Tag) []int64 {
	out := make([]int64, int(tag)+8)
	copy(out, s)
	return out
}

// countSentN counts n copies of a send. It also grows the delivered and
// dropped counters to cover tag: a copy is delivered or dropped only
// after it was sent, so the delivery loop indexes them without a check.
func (m *Metrics) countSentN(tag Tag, n int64) {
	if int(tag) >= len(m.sent) {
		m.sent = grown(m.sent, tag)
		m.delivered = grown(m.delivered, tag)
		m.dropped = grown(m.dropped, tag)
	}
	m.sent[tag] += n
	m.totalSent += n
}

// Sent returns how many messages with the given tag have been sent.
func (m *Metrics) Sent(tag Tag) int64 {
	if int(tag) >= len(m.sent) {
		return 0
	}
	return m.sent[tag]
}

// TotalSent returns the total number of messages sent so far.
func (m *Metrics) TotalSent() int64 { return m.totalSent }

// MetricsSnapshot is an immutable copy of the counters, keyed by tag
// name — the external format consumed by sweep reports and tests. It is
// unchanged by the interning of tags on the wire: reports built from it
// are byte-identical to those of the string-tagged scheduler.
type MetricsSnapshot struct {
	Sent      map[string]int64
	Delivered map[string]int64
	Dropped   map[string]int64
	TotalSent int64
}

// Snapshot copies the current counters. Tags with a zero count are
// omitted from the respective map, as before. Same ownership contract
// as the other readers: call it with the run token or after Run.
func (m *Metrics) Snapshot() MetricsSnapshot {
	snap := MetricsSnapshot{
		Sent:      make(map[string]int64),
		Delivered: make(map[string]int64),
		Dropped:   make(map[string]int64),
		TotalSent: m.totalSent,
	}
	for tag, v := range m.sent {
		if v != 0 {
			snap.Sent[Tag(tag).String()] = v
		}
	}
	for tag, v := range m.delivered {
		if v != 0 {
			snap.Delivered[Tag(tag).String()] = v
		}
	}
	for tag, v := range m.dropped {
		if v != 0 {
			snap.Dropped[Tag(tag).String()] = v
		}
	}
	return snap
}

// Tags returns the message tags seen so far, sorted.
func (s MetricsSnapshot) Tags() []string {
	seen := make(map[string]bool, len(s.Sent))
	for tag := range s.Sent {
		seen[tag] = true
	}
	for tag := range s.Delivered {
		seen[tag] = true
	}
	tags := make([]string, 0, len(seen))
	for tag := range seen {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	return tags
}
