package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// endToEndMetrics are what a user of the suite sees, each the median over
// the run's untraced passes.
func (b *bench) endToEndMetrics() map[string]metric {
	med := func(f func(*pass) float64) float64 { return median(b.collect(f, untraced)) }
	wall := med(func(p *pass) float64 { return p.wall })
	setup := b.setup.total()
	if b.w.fleet {
		setup += median(b.spawns)
	}
	return map[string]metric{
		"wall_s":      {wall, "s"},
		"cells_per_s": {float64(b.passes[0].cells) / wall, "cells/s"},
		"cpu_s":       {med(func(p *pass) float64 { return p.cpu }), "s"},
		"setup_s":     {setup, "s"},
		"peak_rss_mb": {med(func(p *pass) float64 { return float64(p.peakRSS) / (1 << 20) }), "MB"},
	}
}

// layerMetrics are the per-layer numbers of a traced run: medians over
// its traced passes, except exact counts (the same in every pass) and
// the dispatcher's rare-event counts (totals over every pass, so one
// spurious suspicion shows). Every workload prints every metric; a layer
// the workload does not run reads 0.
func (b *bench) layerMetrics() map[string]metric {
	out := map[string]metric{}
	set := func(name, unit string, v float64) { out[name] = metric{v, unit} }
	med := func(f func(*pass) float64) float64 { return median(b.collect(f, traced)) }
	first := b.passes[0]
	msgs, vticks := float64(first.msgs), float64(first.vticks)

	set("sweep.cells", "count", float64(first.cells))
	set("sweep.decode_s", "s", median(b.setup.decode))
	set("sweep.expand_s", "s", median(b.setup.expand))
	set("sweep.busy_s", "s", med(func(p *pass) float64 { return p.busy }))
	set("sweep.idle_s", "s", med(func(p *pass) float64 { return p.idle }))
	set("sweep.util", "ratio", med(func(p *pass) float64 { return p.busy / (p.busy + p.idle) }))
	set("sweep.run_self_s", "s", med(func(p *pass) float64 { return p.runSelf }))
	set("sweep.render_s", "s", med(func(p *pass) float64 { return p.render }))
	set("sweep.render_bytes", "bytes", float64(first.renderBytes))

	var p50, tail, tailPct, maxMS, samples []float64
	for _, p := range b.passes {
		if !p.traced || len(p.cellWall) == 0 {
			continue
		}
		s := append([]float64(nil), p.cellWall...)
		sort.Float64s(s)
		p50 = append(p50, 1e3*percentile(s, 50))
		maxMS = append(maxMS, 1e3*s[len(s)-1])
		samples = append(samples, float64(len(s)))
		if q, ok := tailPercentile(len(s)); ok {
			tail = append(tail, 1e3*percentile(s, q))
			tailPct = append(tailPct, q)
		}
	}
	set("cell.p50_ms", "ms", median(p50))
	set("cell.tail_ms", "ms", median(tail))
	set("cell.tail_pct", "%", median(tailPct))
	set("cell.samples", "count", median(samples))
	set("cell.max_ms", "ms", median(maxMS))

	set("sim.msgs", "count", msgs)
	set("sim.vticks", "count", vticks)
	set("sim.ns_per_msg", "ns/msg", med(func(p *pass) float64 { return 1e9 * p.busy / msgs }))
	set("sim.ns_per_vtick", "ns/vtick", med(func(p *pass) float64 { return 1e9 * p.busy / vticks }))

	set("runtime.alloc_bytes", "bytes", med(func(p *pass) float64 { return p.rt[0] }))
	set("runtime.alloc_bytes_per_msg", "bytes/msg", med(func(p *pass) float64 { return p.rt[0] / msgs }))
	set("runtime.allocs_per_msg", "allocs/msg", med(func(p *pass) float64 { return p.rt[1] / msgs }))
	set("runtime.gc_cpu_s", "s", med(func(p *pass) float64 { return p.rt[2] }))
	set("runtime.gc_cycles", "count", med(func(p *pass) float64 { return p.rt[3] }))

	for _, proto := range b.protocols {
		set("runner."+proto+".busy_s", "s", med(func(p *pass) float64 { return p.byProtocol[proto] }))
	}

	b.dispatchMetrics(set)

	untracedWall := median(b.collect(func(p *pass) float64 { return p.wall }, untraced))
	set("trace.overhead_s", "s", med(func(p *pass) float64 { return p.wall })-untracedWall)
	return out
}

// dispatchMetrics reports the dispatch layer and its wire; zero on the
// in-process workloads, which never touch internal/dispatch.
func (b *bench) dispatchMetrics(set func(name, unit string, v float64)) {
	fleetMed := func(f func(*fleetObs) float64) float64 {
		return median(b.collect(func(p *pass) float64 { return f(p.fleet) }, func(p *pass) bool { return p.traced && p.fleet != nil }))
	}
	var units, retries, speculated, duplicates, lost, local, cells float64
	for _, p := range b.passes {
		if p.fleet == nil {
			continue
		}
		st := p.fleet.stats
		units = float64(st.Units)
		retries += float64(st.Retries)
		speculated += float64(st.Speculated)
		duplicates += float64(st.Duplicates)
		lost += float64(st.WorkersLost)
		local += float64(st.LocalUnits)
		cells += float64(st.Cells)
	}
	useful := 0.0
	if cells > 0 {
		useful = cells / (cells + duplicates)
	}
	spawn := 0.0
	if len(b.spawns) > 0 {
		spawn = median(b.spawns)
	}
	set("dispatch.spawn_s", "s", spawn)
	set("dispatch.run_s", "s", fleetMed(func(o *fleetObs) float64 { return o.run }))
	set("dispatch.worker_skew", "ratio", fleetMed(workerSkew))
	set("dispatch.units", "count", units)
	set("dispatch.retries", "count", retries)
	set("dispatch.speculated", "count", speculated)
	set("dispatch.duplicates", "count", duplicates)
	set("dispatch.workers_lost", "count", lost)
	set("dispatch.local_units", "count", local)
	set("dispatch.useful_ratio", "ratio", useful)
	set("wire.frames_in", "count", fleetMed(func(o *fleetObs) float64 { return float64(o.framesIn) }))
	set("wire.frames_out", "count", fleetMed(func(o *fleetObs) float64 { return float64(o.framesOut) }))
	set("wire.bytes_in", "bytes", fleetMed(func(o *fleetObs) float64 { return float64(o.bytesIn) }))
	set("wire.bytes_out", "bytes", fleetMed(func(o *fleetObs) float64 { return float64(o.bytesOut) }))
	set("wire.write_s", "s", fleetMed(func(o *fleetObs) float64 { return o.writeS }))
	set("wire.read_s", "s", fleetMed(func(o *fleetObs) float64 { return o.readS }))
}

// workerSkew is max ÷ min of the cells each fleet worker delivered, from
// Stats.CellsByWorker (every key but "local", the in-process fallback).
// A worker that delivered none is missing from the map and counts as
// one, so the skew reads as the busiest worker's count.
func workerSkew(o *fleetObs) float64 {
	var counts []int
	for name, n := range o.stats.CellsByWorker {
		if name != "local" {
			counts = append(counts, n)
		}
	}
	for len(counts) < o.workers {
		counts = append(counts, 0)
	}
	if len(counts) == 0 {
		return 0
	}
	lo, hi := counts[0], counts[0]
	for _, n := range counts {
		lo, hi = min(lo, n), max(hi, n)
	}
	return float64(hi) / float64(max(lo, 1))
}

// printReport writes the run's settings as a JSON line and its metrics as
// a table. failed_frac is printed here only: it reads 0 on a correct
// run, and the last line carries the same count as failed ÷ attempted.
func (b *bench) printReport(w io.Writer, res result) {
	env, _ := json.Marshal(map[string]envInfo{"env": b.env()})
	fmt.Fprintln(w, string(env))
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-8s %-32s %16.6g %s\n", b.w.name, k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Fprintf(w, "%-8s %-32s %16.6g %s\n", b.w.name, "failed_frac", float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio")
}
