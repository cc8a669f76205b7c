package vaq

import (
	"vaq/internal/trace"
)

// TraceConfig tunes per-query tracing (ring size, slow-query threshold,
// exemplar reservoir size; see the field docs in internal/trace.Config).
// The zero value is usable.
type TraceConfig = trace.Config

// Tracer collects completed QueryTraces: a lock-free ring of the most
// recent queries plus a reservoir of slow-query exemplars. Obtain one with
// Index.EnableTracing; read it with Recent, Slowest and Count.
type Tracer = trace.Tracer

// QueryTrace is one traced query: its timed spans, total wall time, and
// the pruning stats the metrics registry aggregates index-wide.
type QueryTrace = trace.QueryTrace

// TraceSpan is one timed phase of a traced query (projection, LUT fill,
// cluster ranking, per-cluster scan, EA resume).
type TraceSpan = trace.Span

// Names of the spans the query kernels record.
const (
	SpanProject     = trace.SpanProject
	SpanLUTFill     = trace.SpanLUTFill
	SpanClusterRank = trace.SpanClusterRank
	SpanClusterScan = trace.SpanClusterScan
	SpanEAResume    = trace.SpanEAResume
	SpanScan        = trace.SpanScan
)

// Names of the spans a sharded scatter-gather query records
// (ShardedIndex.EnableTracing): per shard a wait and a scan span, one
// bound-feedback event per cross-shard bound tightening, and a trailing
// merge span. Their TraceSpan.Shard field identifies the shard.
const (
	SpanShardWait     = trace.SpanShardWait
	SpanShardScan     = trace.SpanShardScan
	SpanShardMerge    = trace.SpanShardMerge
	SpanBoundFeedback = trace.SpanBoundFeedback
)

// EnableTracing installs a fresh per-query tracer on the index and returns
// it; every query then records one QueryTrace. On an Index, the pooled
// Searchers behind Search/SearchWith and SearchBatch workers pick it up on
// their next query, as do Searchers created afterwards; Searchers created
// earlier with NewSearcher keep running untraced (re-point them with
// Searcher.AttachTracer). On a ShardedIndex, each search files one parent
// QueryTrace whose spans carry a Shard id: per shard a SpanShardWait
// (queue delay on the scatter worker pool) and a SpanShardScan (the
// shard's whole search with its TI/EA/lookup attribution and final top-k
// hits inline), one SpanBoundFeedback per cross-shard bound tightening
// (crediting the prunes it enabled downstream), and a trailing
// SpanShardMerge. Tracing costs a few clock reads and one allocation per
// query; disabled, it costs one nil pointer check.
func (ix *observed) EnableTracing(cfg TraceConfig) *Tracer {
	return ix.att.EnableTracing(cfg)
}

// DisableTracing detaches the index tracer. The pooled Searchers behind
// Search/SearchWith/SearchBatch stop recording on their next query;
// Searchers from NewSearcher keep their recorders until re-pointed, and
// sharded queries already in flight may still file one last trace.
func (ix *observed) DisableTracing() { ix.att.DisableTracing() }

// Tracer returns the active tracer, or nil when tracing is disabled.
func (ix *observed) Tracer() *Tracer { return ix.att.Tracer() }

// AttachTracer re-points this Searcher at t (nil detaches). Searchers pick
// up the index tracer at creation; long-lived ones built before
// EnableTracing use this to opt in without being recreated.
func (s *Searcher) AttachTracer(t *Tracer) { s.inner.AttachTracer(t) }

// PublishTrace registers t under name for the /debug/vaq/traces HTTP
// handler (served by ServeDebug alongside /debug/vars and /debug/pprof/):
// plain text by default, ?format=chrome for Chrome trace-event JSON
// (load in chrome://tracing or Perfetto), ?slow=1 for the slow-query
// exemplars only. Publishing nil removes the name.
func PublishTrace(name string, t *Tracer) { trace.Publish(name, t) }
