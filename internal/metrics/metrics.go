// Package metrics is the observability substrate for the VAQ index: an
// atomic, concurrency-safe registry aggregating per-query pruning
// counters (the paper's §III-E SearchStats currency) and fixed-bucket
// latency histograms across all searchers of an index, plus build-phase
// timing and an expvar/pprof serving hook. Everything is stdlib-only and
// the hot recording path is lock-free (a handful of atomic adds), so it
// can stay enabled in production.
package metrics

import (
	"math"
	"sync/atomic"
	"time"

	"vaq/internal/alert"
)

// ClusterRankBuckets is the number of visit-rank buckets the TI-skip
// attribution keeps: bucket r counts codes pruned inside the r-th nearest
// visited cluster, with ranks past the last bucket clamped into it. 64
// covers the full visit list at the paper's default (1000 clusters x 0.25
// visit fraction ranks 0..249 → the tail shares the last bucket) while
// keeping the per-query fold bounded.
const ClusterRankBuckets = 64

// SearchRecord carries one query's pruning counters into the registry. It
// mirrors core.SearchStats field-for-field (enforced by a reflection test
// in internal/core); the duplication keeps this package dependency-free so
// every layer (core, the public API, the cmd tools) can import it without
// cycles.
type SearchRecord struct {
	ClustersVisited  int
	CodesConsidered  int
	CodesSkippedTI   int
	CodesAbandonedEA int
	Lookups          int
	AbandonDepths    []uint32
	TISkipsByRank    []uint32
}

// IndexMetrics aggregates query telemetry for one index. All methods are
// safe for concurrent use and nil-safe: a nil *IndexMetrics records
// nothing, which is how metrics are disabled without branching at call
// sites beyond a single pointer check.
type IndexMetrics struct {
	queries          atomic.Uint64
	errors           atomic.Uint64
	clustersVisited  atomic.Uint64
	codesConsidered  atomic.Uint64
	codesSkippedTI   atomic.Uint64
	codesAbandonedEA atomic.Uint64
	lookups          atomic.Uint64
	latency          Histogram
	// Pruning attribution (sized at construction by NewSized; empty for
	// New, whose callers predate attribution): abandonDepths[i] totals
	// codes early-abandoned after exactly i table lookups, tiSkipsByRank[r]
	// totals codes TI-pruned inside the r-th nearest visited cluster.
	abandonDepths []atomic.Uint64
	tiSkipsByRank []atomic.Uint64
	// Online recall estimator totals (RecordRecallSample).
	recallSamples  atomic.Uint64
	recallHits     atomic.Uint64
	recallExpected atomic.Uint64
	// Quantization-drift gauges (SetSubspaceMSE / SetDrift): the
	// per-subspace EWMA of incoming-vector reconstruction MSE, the ratio of
	// its total to the Build-time baseline, the current dead-codeword
	// count, and whether the ratio sits above the configured alert
	// threshold. Gauges, not counters: each Set overwrites. Float values
	// are stored as math.Float64bits in atomic.Uint64.
	subspaceMSE   []atomic.Uint64
	driftRatio    atomic.Uint64
	deadCodewords atomic.Uint64
	driftAlert    atomic.Uint32
	// slo, when set (ConfigureSLO), evaluates declarative latency/recall
	// objectives over sliding windows of the recorded traffic. Off = one
	// pointer load per RecordSearch. sloDelegated, when true, hands
	// objective alerting to a history collector's multi-window burn-rate
	// evaluation: the windows keep updating but the instantaneous
	// exhaustion edge stays quiet.
	slo          atomic.Pointer[sloState]
	sloDelegated atomic.Bool
	// burn, when set (SetBurn), is the latest multi-window burn-rate
	// evaluation written back by the history collector, exported as the
	// vaq_burn_* Prometheus families.
	burn atomic.Pointer[BurnSnapshot]
	// sharded, when set (ConfigureSharded), holds the scatter-gather
	// straggler/skew telemetry a merged sharded registry feeds through
	// RecordScatter. Off = one pointer load per call.
	sharded atomic.Pointer[shardedState]
	// alerts is the per-index alert bus every edge-triggered detector
	// (vaq.drift, vaq.skew, vaq.slo.*) registers its latch on, created
	// lazily by Alerts so zero-value registries stay cheap.
	alerts atomic.Pointer[alert.Bus]
}

// Alerts returns the registry's alert bus, creating it on first use. The
// bus is where the index's edge-triggered detectors register their named
// latches (alert.Source) and where consumers — the flight recorder, a
// rebuild loop, tests — subscribe to breach/recovery edges. nil on a nil
// registry.
func (m *IndexMetrics) Alerts() *alert.Bus {
	if m == nil {
		return nil
	}
	if b := m.alerts.Load(); b != nil {
		return b
	}
	b := alert.NewBus()
	if m.alerts.CompareAndSwap(nil, b) {
		return b
	}
	return m.alerts.Load()
}

// New returns an empty registry without attribution histograms (their
// shape depends on the index: use NewSized when the subspace count is
// known).
func New() *IndexMetrics { return &IndexMetrics{} }

// NewSized returns an empty registry whose pruning-attribution histograms
// hold depths abandonment-depth counters (one per possible lookup count,
// i.e. subspaces+1) and ClusterRankBuckets visit-rank counters, plus
// subspaces per-subspace drift gauges.
func NewSized(depths, subspaces int) *IndexMetrics {
	if depths < 0 {
		depths = 0
	}
	if subspaces < 0 {
		subspaces = 0
	}
	return &IndexMetrics{
		abandonDepths: make([]atomic.Uint64, depths),
		tiSkipsByRank: make([]atomic.Uint64, ClusterRankBuckets),
		subspaceMSE:   make([]atomic.Uint64, subspaces),
	}
}

// SetSubspaceMSE overwrites the per-subspace drift gauges (EWMA of
// incoming-vector reconstruction MSE). Values beyond the registry's
// subspace shape are ignored, as are calls on a nil or unshaped registry.
func (m *IndexMetrics) SetSubspaceMSE(mse []float64) {
	if m == nil {
		return
	}
	for i, v := range mse {
		if i >= len(m.subspaceMSE) {
			return
		}
		m.subspaceMSE[i].Store(math.Float64bits(v))
	}
}

// SetDrift overwrites the drift-ratio gauge (EWMA total MSE over the
// Build-time baseline; 1 = no drift) and the alert gauge.
func (m *IndexMetrics) SetDrift(ratio float64, alert bool) {
	if m == nil {
		return
	}
	m.driftRatio.Store(math.Float64bits(ratio))
	var a uint32
	if alert {
		a = 1
	}
	m.driftAlert.Store(a)
}

// SetDeadCodewords overwrites the dead-codeword gauge (dictionary entries
// no code currently references, summed over subspaces).
func (m *IndexMetrics) SetDeadCodewords(n uint64) {
	if m == nil {
		return
	}
	m.deadCodewords.Store(n)
}

// RecordSearch folds one completed query into the registry. Attribution
// slices are folded entry-wise (skipping zeros: per query only a handful
// of depths and ranks are hot) and ignored when their length does not
// match the registry's shape.
func (m *IndexMetrics) RecordSearch(r SearchRecord, d time.Duration) {
	if m == nil {
		return
	}
	m.queries.Add(1)
	m.clustersVisited.Add(uint64(r.ClustersVisited))
	m.codesConsidered.Add(uint64(r.CodesConsidered))
	m.codesSkippedTI.Add(uint64(r.CodesSkippedTI))
	m.codesAbandonedEA.Add(uint64(r.CodesAbandonedEA))
	m.lookups.Add(uint64(r.Lookups))
	if len(r.AbandonDepths) == len(m.abandonDepths) {
		for i, v := range r.AbandonDepths {
			if v != 0 {
				m.abandonDepths[i].Add(uint64(v))
			}
		}
	}
	if len(r.TISkipsByRank) == len(m.tiSkipsByRank) {
		for i, v := range r.TISkipsByRank {
			if v != 0 {
				m.tiSkipsByRank[i].Add(uint64(v))
			}
		}
	}
	m.latency.Observe(d)
	if s := m.slo.Load(); s != nil {
		s.observeLatency(d, m.sloDelegated.Load())
	}
}

// RecordRecallSample folds one shadow-exact comparison into the online
// recall estimate: hits of expected true neighbors were present in the
// approximate answer.
func (m *IndexMetrics) RecordRecallSample(hits, expected int) {
	if m == nil || expected <= 0 {
		return
	}
	m.recallSamples.Add(1)
	m.recallHits.Add(uint64(hits))
	m.recallExpected.Add(uint64(expected))
	if s := m.slo.Load(); s != nil {
		s.observeRecall(hits, expected, m.sloDelegated.Load())
	}
}

// RecordError counts a query that failed validation or execution, or an
// Add rejected for non-finite input.
func (m *IndexMetrics) RecordError() {
	if m == nil {
		return
	}
	m.errors.Add(1)
}

// Reset zeroes every counter and the histogram. Not atomic with respect
// to concurrent recording; intended for benchmarks and tests.
func (m *IndexMetrics) Reset() {
	if m == nil {
		return
	}
	m.queries.Store(0)
	m.errors.Store(0)
	m.clustersVisited.Store(0)
	m.codesConsidered.Store(0)
	m.codesSkippedTI.Store(0)
	m.codesAbandonedEA.Store(0)
	m.lookups.Store(0)
	for i := range m.abandonDepths {
		m.abandonDepths[i].Store(0)
	}
	for i := range m.tiSkipsByRank {
		m.tiSkipsByRank[i].Store(0)
	}
	m.recallSamples.Store(0)
	m.recallHits.Store(0)
	m.recallExpected.Store(0)
	for i := range m.subspaceMSE {
		m.subspaceMSE[i].Store(0)
	}
	m.driftRatio.Store(0)
	m.deadCodewords.Store(0)
	m.driftAlert.Store(0)
	m.slo.Load().reset()
	m.sharded.Load().reset()
	m.burn.Store(nil)
	// Re-arm every alert latch on the bus (the SLO and sharded resets above
	// already re-armed theirs; this additionally covers detectors owned by
	// other layers, e.g. core's vaq.drift): the windows were zeroed, so a
	// persisting condition should fire — and trigger — again.
	m.alerts.Load().ResetAll()
	m.latency.Reset()
}

// Snapshot returns a point-in-time copy of all counters. A nil registry
// yields the zero snapshot.
func (m *IndexMetrics) Snapshot() Snapshot {
	var s Snapshot
	if m == nil {
		return s
	}
	s.Queries = m.queries.Load()
	s.Errors = m.errors.Load()
	s.ClustersVisited = m.clustersVisited.Load()
	s.CodesConsidered = m.codesConsidered.Load()
	s.CodesSkippedTI = m.codesSkippedTI.Load()
	s.CodesAbandonedEA = m.codesAbandonedEA.Load()
	s.Lookups = m.lookups.Load()
	if len(m.abandonDepths) > 0 {
		s.AbandonDepths = make([]uint64, len(m.abandonDepths))
		for i := range m.abandonDepths {
			s.AbandonDepths[i] = m.abandonDepths[i].Load()
		}
	}
	if len(m.tiSkipsByRank) > 0 {
		s.TISkipsByRank = make([]uint64, len(m.tiSkipsByRank))
		for i := range m.tiSkipsByRank {
			s.TISkipsByRank[i] = m.tiSkipsByRank[i].Load()
		}
	}
	s.RecallSamples = m.recallSamples.Load()
	s.RecallHits = m.recallHits.Load()
	s.RecallExpected = m.recallExpected.Load()
	if len(m.subspaceMSE) > 0 {
		s.SubspaceMSE = make([]float64, len(m.subspaceMSE))
		for i := range m.subspaceMSE {
			s.SubspaceMSE[i] = math.Float64frombits(m.subspaceMSE[i].Load())
		}
	}
	s.DriftRatio = math.Float64frombits(m.driftRatio.Load())
	s.DeadCodewords = m.deadCodewords.Load()
	s.DriftAlert = m.driftAlert.Load() == 1
	s.SLO = m.SLOSnapshot()
	s.Sharded = m.ShardedSnapshot()
	s.Burn = m.Burn()
	s.Latency = m.latency.Snapshot()
	return s
}

// Snapshot is an immutable copy of an IndexMetrics, suitable for JSON
// export and for diffing (see Sub).
type Snapshot struct {
	Queries          uint64 `json:"queries"`
	Errors           uint64 `json:"errors"`
	ClustersVisited  uint64 `json:"clusters_visited"`
	CodesConsidered  uint64 `json:"codes_considered"`
	CodesSkippedTI   uint64 `json:"codes_skipped_ti"`
	CodesAbandonedEA uint64 `json:"codes_abandoned_ea"`
	Lookups          uint64 `json:"lookups"`
	// AbandonDepths[i] totals codes early-abandoned after exactly i table
	// lookups (nonzero entries sit at multiples of Config.EACheckEvery);
	// TISkipsByRank[r] totals codes TI-pruned inside the r-th nearest
	// visited cluster (rank clamped to the last bucket). Nil when the
	// registry was built without attribution shape (New vs NewSized).
	AbandonDepths []uint64 `json:"abandon_depths,omitempty"`
	TISkipsByRank []uint64 `json:"ti_skips_by_rank,omitempty"`
	// RecallSamples/Hits/Expected are the shadow-exact recall estimator
	// totals: over RecallSamples sampled queries, RecallHits of
	// RecallExpected true neighbors appeared in the approximate answers.
	RecallSamples  uint64 `json:"recall_samples,omitempty"`
	RecallHits     uint64 `json:"recall_hits,omitempty"`
	RecallExpected uint64 `json:"recall_expected,omitempty"`
	// SubspaceMSE is the per-subspace EWMA drift gauge (reconstruction MSE
	// of vectors folded in by Add, seeded with the Build-time baseline);
	// DriftRatio its total over the baseline total (1 = no drift, 0 =
	// unknown, e.g. a loaded index with no baseline); DeadCodewords the
	// current count of unused dictionary entries; DriftAlert whether
	// DriftRatio sits above the configured alert threshold. Gauges: Sub
	// keeps the newer snapshot's values as-is.
	SubspaceMSE   []float64 `json:"subspace_mse,omitempty"`
	DriftRatio    float64   `json:"drift_ratio,omitempty"`
	DeadCodewords uint64    `json:"dead_codewords,omitempty"`
	DriftAlert    bool      `json:"drift_alert,omitempty"`
	// SLO is the sliding-window objective evaluation (nil unless
	// ConfigureSLO was called). A gauge block: Sub keeps the newer value.
	SLO *SLOSnapshot `json:"slo,omitempty"`
	// Sharded is the scatter-gather straggler/skew telemetry (nil unless
	// ConfigureSharded was called — i.e. for all single-index registries).
	// Sub keeps the newer value.
	Sharded *ShardedSnapshot `json:"sharded,omitempty"`
	// Burn is the latest multi-window burn-rate evaluation (nil unless a
	// history collector is armed on this registry). Sub keeps the newer
	// value.
	Burn    *BurnSnapshot     `json:"burn,omitempty"`
	Latency HistogramSnapshot `json:"latency"`
}

// Sub returns the counter-wise difference s - prev (histogram excluded:
// bucket-wise subtraction of a live histogram is rarely meaningful, so the
// newer snapshot's histogram is kept as-is).
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	out := s
	out.Queries -= prev.Queries
	out.Errors -= prev.Errors
	out.ClustersVisited -= prev.ClustersVisited
	out.CodesConsidered -= prev.CodesConsidered
	out.CodesSkippedTI -= prev.CodesSkippedTI
	out.CodesAbandonedEA -= prev.CodesAbandonedEA
	out.Lookups -= prev.Lookups
	if len(s.AbandonDepths) == len(prev.AbandonDepths) {
		out.AbandonDepths = make([]uint64, len(s.AbandonDepths))
		for i := range s.AbandonDepths {
			out.AbandonDepths[i] = s.AbandonDepths[i] - prev.AbandonDepths[i]
		}
	}
	if len(s.TISkipsByRank) == len(prev.TISkipsByRank) {
		out.TISkipsByRank = make([]uint64, len(s.TISkipsByRank))
		for i := range s.TISkipsByRank {
			out.TISkipsByRank[i] = s.TISkipsByRank[i] - prev.TISkipsByRank[i]
		}
	}
	out.RecallSamples -= prev.RecallSamples
	out.RecallHits -= prev.RecallHits
	out.RecallExpected -= prev.RecallExpected
	return out
}

// ObservedRecall is the shadow-exact recall estimate: the fraction of true
// nearest neighbors the approximate answers contained, over all sampled
// queries (0 when nothing was sampled).
func (s Snapshot) ObservedRecall() float64 {
	if s.RecallExpected == 0 {
		return 0
	}
	return float64(s.RecallHits) / float64(s.RecallExpected)
}

// TIPruneRate is the fraction of considered codes eliminated by the
// triangle-inequality bound before any table lookup.
func (s Snapshot) TIPruneRate() float64 {
	if s.CodesConsidered == 0 {
		return 0
	}
	return float64(s.CodesSkippedTI) / float64(s.CodesConsidered)
}

// EAAbandonRate is the fraction of considered codes whose lookup
// accumulation was cut short by early abandoning.
func (s Snapshot) EAAbandonRate() float64 {
	if s.CodesConsidered == 0 {
		return 0
	}
	return float64(s.CodesAbandonedEA) / float64(s.CodesConsidered)
}

// BuildReport is the wall-clock cost of each build phase (Algorithm 5's
// stages). Captured once at Build time and immutable afterwards.
type BuildReport struct {
	// Total is end-to-end Build time (>= the sum of the phases below;
	// the gap is glue: matrix projection, validation, copies).
	Total time.Duration `json:"total"`
	// PCA is the eigendecomposition of the training matrix (Algorithm 1).
	PCA time.Duration `json:"pca"`
	// Allocation is the bit-budget solve (Algorithm 2: MILP, transform
	// coding, or uniform).
	Allocation time.Duration `json:"allocation"`
	// Training is per-subspace dictionary learning (k-means, Algorithm 3).
	Training time.Duration `json:"training"`
	// Encoding is dataset quantization against the trained dictionaries.
	Encoding time.Duration `json:"encoding"`
	// TIClustering is the triangle-inequality skip-structure build
	// (Algorithm 3 lines 24-48).
	TIClustering time.Duration `json:"ti_clustering"`
	// Layout is the derivation of the scan-optimized physical code
	// layout (cluster-contiguous blocked transposition; zero when the
	// legacy row-major layout was requested).
	Layout time.Duration `json:"layout"`
	// Diagnostics is the Build-time IndexReport baseline computation
	// (utilization pass plus exact distortion accounting).
	Diagnostics time.Duration `json:"diagnostics"`
}
