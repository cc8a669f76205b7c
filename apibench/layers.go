package main

import (
	"sort"
	"time"

	"vaq"
)

// Span names the fast-mode kernels record that the vaq package does not
// re-export.
const (
	spanLUTQuant = "lut_quant"
	spanRerank   = "rerank"
)

// Tracer ring sizing. A single client files one trace per query and the
// collector drains the ring once half of it is unread, so no trace is
// overwritten before it is read; trace.captured_frac reports the share
// actually collected (1 when the sizing holds).
const (
	traceRing     = 1024
	traceDrainAt  = traceRing / 2
	traceMaxSpans = 1024
)

func traceConfig() vaq.TraceConfig {
	return vaq.TraceConfig{
		RingSize: traceRing,
		MaxSpans: traceMaxSpans,
		// Keep every query out of the slow-exemplar reservoir, so the
		// traced run measures the ring path only.
		SlowThreshold: time.Hour,
	}
}

// traceData is what a trace collector gathered; the parts of a run add
// theirs up.
type traceData struct {
	Traces   int // traces read
	Filed    uint64
	Dropped  int
	Spans    map[string]time.Duration // summed by span name
	Covered  time.Duration            // union of the spans' intervals, summed over traces
	CallTime time.Duration            // the benchmark's own timing of the traced calls
}

func (t *traceData) merge(o traceData) {
	if t.Spans == nil {
		t.Spans = map[string]time.Duration{}
	}
	t.Traces += o.Traces
	t.Filed += o.Filed
	t.Dropped += o.Dropped
	t.Covered += o.Covered
	t.CallTime += o.CallTime
	for name, d := range o.Spans {
		t.Spans[name] += d
	}
}

// traceCollector reads every QueryTrace a tracer files and sums span time
// by span name.
type traceCollector struct {
	tr       *vaq.Tracer
	seen     uint64 // highest Seq read so far
	d        traceData
	callTime time.Duration // the benchmark's own timing of the traced calls
	ivs      []interval
}

func newTraceCollector(tr *vaq.Tracer) *traceCollector {
	return &traceCollector{tr: tr, d: traceData{Spans: map[string]time.Duration{}}}
}

func (c *traceCollector) data() traceData {
	d := c.d
	d.Filed, d.CallTime = c.tr.Count(), c.callTime
	return d
}

func (c *traceCollector) due() bool { return c.tr.Count()-c.seen >= traceDrainAt }

func (c *traceCollector) drain() {
	for _, qt := range c.tr.Recent() {
		if qt.Seq <= c.seen {
			continue
		}
		c.add(qt)
	}
	c.seen = c.tr.Count()
}

func (c *traceCollector) add(qt *vaq.QueryTrace) {
	c.d.Traces++
	c.d.Dropped += qt.DroppedSpans
	c.ivs = c.ivs[:0]
	for _, s := range qt.Spans {
		c.d.Spans[s.Name] += s.Dur
		// EA resume is an aggregate of stretches inside the cluster scans,
		// not an interval of its own.
		if s.Name != vaq.SpanEAResume && s.Dur > 0 {
			c.ivs = append(c.ivs, interval{s.Start, s.Start + s.Dur})
		}
	}
	sort.Slice(c.ivs, func(i, j int) bool { return c.ivs[i].start < c.ivs[j].start })
	var cur interval
	for i, iv := range c.ivs {
		switch {
		case i == 0:
			cur = iv
		case iv.start > cur.end:
			c.d.Covered += cur.end - cur.start
			cur = iv
		case iv.end > cur.end:
			cur.end = iv.end
		}
	}
	if len(c.ivs) > 0 {
		c.d.Covered += cur.end - cur.start
	}
}

// queryLayers turns the spans the collectors gathered into mean self time
// per query, in microseconds. Cluster scans contain the EA resumes, so the
// scan's self time excludes them. vaq.api_self_us is the benchmark's
// timing of the call minus the part of it the tracer's spans cover.
func queryLayers(m map[string]float64, c traceData) {
	s := c.Spans
	per := func(d time.Duration) float64 {
		return float64(d.Nanoseconds()) / 1e3 / float64(max(c.Traces, 1))
	}
	m["pca.project_us"] = per(s[vaq.SpanProject])
	m["quantizer.lut_fill_us"] = per(s[vaq.SpanLUTFill])
	m["core.lut_quant_us"] = per(s[spanLUTQuant])
	m["core.cluster_rank_us"] = per(s[vaq.SpanClusterRank])
	m["core.scan_us"] = per(s[vaq.SpanClusterScan] + s[vaq.SpanScan] - s[vaq.SpanEAResume])
	m["core.ea_resume_us"] = per(s[vaq.SpanEAResume])
	m["core.rerank_us"] = per(s[spanRerank])
	m["shard.wait_us"] = per(s[vaq.SpanShardWait])
	m["shard.scan_us"] = per(s[vaq.SpanShardScan])
	m["shard.merge_us"] = per(s[vaq.SpanShardMerge])
	m["vaq.api_self_us"] = per(c.CallTime - c.Covered)
	m["trace.dropped_spans_per_q"] = float64(c.Dropped) / float64(max(c.Traces, 1))
	m["trace.captured_frac"] = float64(c.Traces) / float64(max(c.Filed, 1))
}

// counterLayers derives the per-query work counters from the counter
// pass's registry delta and the index's LUT size (Σ 2^bits over the
// subspaces; 0 when the index does not expose Stats).
func counterLayers(m map[string]float64, d vaq.MetricsSnapshot, lutEntries int) {
	q := float64(max(d.Queries, 1))
	cons := float64(max(d.CodesConsidered, 1))
	m["core.lookups_per_q"] = float64(d.Lookups) / q
	m["core.codes_considered_per_q"] = float64(d.CodesConsidered) / q
	m["core.clusters_visited_per_q"] = float64(d.ClustersVisited) / q
	m["core.ti_skip_ratio"] = float64(d.CodesSkippedTI) / cons
	m["core.ea_abandon_ratio"] = float64(d.CodesAbandonedEA) / cons
	m["quantizer.lut_entries_per_q"] = float64(lutEntries)
	m["core.lookups_per_lut_entry"] = 0
	if lutEntries > 0 {
		m["core.lookups_per_lut_entry"] = m["core.lookups_per_q"] / float64(lutEntries)
	}
}

func lutEntries(ix target) int {
	plain, ok := ix.(*vaq.Index)
	if !ok {
		return 0
	}
	total := 0
	for _, b := range plain.Stats().BitsPerSubspace {
		total += 1 << b
	}
	return total
}
