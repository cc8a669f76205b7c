package vaq

import (
	"net/http"
	"time"

	"vaq/internal/metrics"
)

// SLO declares service-level objectives for an index — a tail-latency
// target (LatencyTarget met by LatencyObjective of windowed queries) and/or
// a minimum windowed observed recall (MinRecall, fed by
// Config.RecallSampleRate). Set it via Config.SLO; read the evaluation via
// MetricsSnapshot.SLO. See the field docs in internal/metrics.SLO.
type SLO = metrics.SLO

// SLOSnapshot is the point-in-time SLO evaluation: the declared objectives
// plus the windowed error-budget gauges (budget remaining, burn rate,
// exhaustion latches). Negative budget = objective broken.
type SLOSnapshot = metrics.SLOSnapshot

// ShardedSnapshot is the scatter-gather telemetry of a ShardedIndex:
// per-shard critical-path and final-top-k hit attribution, the windowed
// skew-ratio and load-imbalance gauges, the straggler-delta histogram,
// and the skew-alert latch. See the field docs in
// internal/metrics.ShardedSnapshot.
type ShardedSnapshot = metrics.ShardedSnapshot

// MetricsSnapshot is a point-in-time view of an index's query telemetry:
// totals of the per-query SearchStats counters across every Searcher plus
// latency percentiles from a fixed-bucket histogram. All fields are
// cumulative since Build (or the last ResetMetrics).
type MetricsSnapshot struct {
	// Queries is the number of completed searches; Errors the number of
	// searches rejected by validation (bad k, bad dimension, non-finite
	// coordinates) plus the Adds rejected for non-finite coordinates.
	Queries uint64 `json:"queries"`
	Errors  uint64 `json:"errors"`
	// ClustersVisited..Lookups are the summed SearchStats counters.
	ClustersVisited  uint64 `json:"clusters_visited"`
	CodesConsidered  uint64 `json:"codes_considered"`
	CodesSkippedTI   uint64 `json:"codes_skipped_ti"`
	CodesAbandonedEA uint64 `json:"codes_abandoned_ea"`
	Lookups          uint64 `json:"lookups"`
	// TIPruneRate and EAAbandonRate are the fractions of considered codes
	// eliminated by the triangle-inequality bound / cut short by early
	// abandoning (the Figure 7 pruning currency).
	TIPruneRate   float64 `json:"ti_prune_rate"`
	EAAbandonRate float64 `json:"ea_abandon_rate"`
	// AbandonDepths attributes early abandons to the lookup count at which
	// they happened: AbandonDepths[i] totals codes cut short after exactly
	// i table lookups. TISkipsByRank attributes triangle-inequality pruning
	// to the visit rank of the cluster it happened in (the last bucket
	// clamps the tail). Nil when metrics are disabled.
	AbandonDepths []uint64 `json:"abandon_depths,omitempty"`
	TISkipsByRank []uint64 `json:"ti_skips_by_rank,omitempty"`
	// RecallSamples counts queries audited by the online recall estimator
	// (Config.RecallSampleRate); ObservedRecall is the measured recall@k
	// over those samples (0 when nothing was sampled).
	RecallSamples  uint64  `json:"recall_samples,omitempty"`
	ObservedRecall float64 `json:"observed_recall,omitempty"`
	// LatencyP50/P95/P99/Mean summarize per-query wall time. Bucketed
	// estimates: exponential buckets bound the error by 2x.
	LatencyP50  time.Duration `json:"latency_p50_ns"`
	LatencyP95  time.Duration `json:"latency_p95_ns"`
	LatencyP99  time.Duration `json:"latency_p99_ns"`
	LatencyMean time.Duration `json:"latency_mean_ns"`
	// SubspaceMSE is the per-subspace EWMA reconstruction error of vectors
	// folded in by Add (seeded with the Build baseline); DriftRatio is its
	// total over the baseline total (1 = no drift); DriftAlert reports
	// whether the ratio currently exceeds Config.DriftAlertRatio.
	// DeadCodewords counts dictionary entries no live code references.
	// Nil/zero for indexes loaded from disk (the baseline is runtime-only).
	SubspaceMSE   []float64 `json:"subspace_mse,omitempty"`
	DriftRatio    float64   `json:"drift_ratio,omitempty"`
	DeadCodewords uint64    `json:"dead_codewords,omitempty"`
	DriftAlert    bool      `json:"drift_alert,omitempty"`
	// SLO is the error-budget evaluation of Config.SLO (nil when no
	// objectives are configured).
	SLO *SLOSnapshot `json:"slo,omitempty"`
	// Sharded is the scatter-gather telemetry of a ShardedIndex (nil on
	// unsharded indexes and when metrics are disabled).
	Sharded *ShardedSnapshot `json:"sharded,omitempty"`
}

func toSnapshot(s metrics.Snapshot) MetricsSnapshot {
	return MetricsSnapshot{
		Queries:          s.Queries,
		Errors:           s.Errors,
		ClustersVisited:  s.ClustersVisited,
		CodesConsidered:  s.CodesConsidered,
		CodesSkippedTI:   s.CodesSkippedTI,
		CodesAbandonedEA: s.CodesAbandonedEA,
		Lookups:          s.Lookups,
		TIPruneRate:      s.TIPruneRate(),
		EAAbandonRate:    s.EAAbandonRate(),
		AbandonDepths:    s.AbandonDepths,
		TISkipsByRank:    s.TISkipsByRank,
		RecallSamples:    s.RecallSamples,
		ObservedRecall:   s.ObservedRecall(),
		LatencyP50:       s.Latency.Quantile(0.50),
		LatencyP95:       s.Latency.Quantile(0.95),
		LatencyP99:       s.Latency.Quantile(0.99),
		LatencyMean:      s.Latency.Mean(),
		SubspaceMSE:      s.SubspaceMSE,
		DriftRatio:       s.DriftRatio,
		DeadCodewords:    s.DeadCodewords,
		DriftAlert:       s.DriftAlert,
		SLO:              s.SLO,
		Sharded:          s.Sharded,
	}
}

// Metrics returns the current aggregated query telemetry. It is cheap
// (atomic loads) and safe to call while queries are in flight. The zero
// snapshot is returned when metrics are disabled.
func (ix *Index) Metrics() MetricsSnapshot {
	return toSnapshot(ix.inner.Metrics().Snapshot())
}

// ResetMetrics zeroes the telemetry registry (benchmark warmup, test
// isolation). Not atomic with respect to in-flight queries.
func (ix *Index) ResetMetrics() { ix.inner.Metrics().Reset() }

// BuildReport is the wall-clock cost of each index-construction phase.
type BuildReport struct {
	// Total is end-to-end Build time; the remaining fields are the major
	// phases (their sum is slightly below Total — the gap is projection
	// and glue).
	Total time.Duration `json:"total"`
	// PCA is the eigendecomposition of the training matrix.
	PCA time.Duration `json:"pca"`
	// Allocation is the bit-budget solve (MILP / transform coding /
	// uniform).
	Allocation time.Duration `json:"allocation"`
	// Training is per-subspace dictionary learning (k-means).
	Training time.Duration `json:"training"`
	// Encoding is dataset quantization against the trained dictionaries.
	Encoding time.Duration `json:"encoding"`
	// TIClustering is the triangle-inequality skip-structure build.
	TIClustering time.Duration `json:"ti_clustering"`
	// Layout is the derivation of the scan-optimized blocked code layout
	// (zero when the row-major layout was requested).
	Layout time.Duration `json:"layout"`
	// Diagnostics is the Build-time IndexReport baseline computation.
	Diagnostics time.Duration `json:"diagnostics"`
}

// BuildReport returns the per-phase timings captured when this index was
// built. Indexes loaded from disk report zero durations.
func (ix *Index) BuildReport() BuildReport {
	r := ix.inner.BuildReport()
	return BuildReport{
		Total:        r.Total,
		PCA:          r.PCA,
		Allocation:   r.Allocation,
		Training:     r.Training,
		Encoding:     r.Encoding,
		TIClustering: r.TIClustering,
		Layout:       r.Layout,
		Diagnostics:  r.Diagnostics,
	}
}

// PublishExpvar registers this index's live metrics under name in the
// process-wide expvar namespace (GET /debug/vars). Publishing the same
// name again rebinds it to this index. No-op effect when metrics are
// disabled (the published snapshot stays zero).
func (ix *Index) PublishExpvar(name string) {
	metrics.Publish(name, ix.inner.Metrics())
	ix.inner.SetProfileLabel(name)
}

// ServeDebug starts an HTTP server on addr (e.g. "localhost:6060", or
// ":0" for an ephemeral port) exposing expvar (/debug/vars), pprof
// (/debug/pprof/), Prometheus text-format metrics (/debug/vaq/metrics,
// fed by PublishExpvar), query traces (/debug/vaq/traces, fed by
// PublishTrace) and index-quality reports (/debug/vaq/report, fed by
// PublishDiagnostics) from the default mux. The returned server's Addr field
// holds the actual listen address; shut it down with its Close method.
// Combine with (*Index).PublishExpvar to watch an index live.
func ServeDebug(addr string) (*http.Server, error) {
	return metrics.ServeDebug(addr)
}
