package vaq

import (
	"fmt"
	"io"
	"log/slog"

	"vaq/internal/shard"
	"vaq/internal/vec"
)

// ShardPolicy selects how a sharded index routes Add batches to shards.
type ShardPolicy = shard.Policy

// Shard assignment policies.
const (
	// ShardRoundRobin rotates whole batches across shards (default).
	ShardRoundRobin = shard.PolicyRoundRobin
	// ShardLeastLoaded sends each batch to the currently smallest shard.
	ShardLeastLoaded = shard.PolicyLeastLoaded
)

// ShardedIndex is a VAQ index partitioned across Config.Shards independent
// shards that share one trained model. Builds encode shards in parallel;
// Search scatters the query to per-shard searchers on a bounded worker
// pool, feeds the running global k-th distance back to not-yet-started
// shards as an early-abandon threshold, and merges the per-shard top-k
// lists in the same strict (distance, id) order the single index uses —
// with Shards=1 results and serialized shard payloads are bit-identical to
// an unsharded Index. Add reserves global ids with one atomic counter and
// routes each batch to one shard by ShardPolicy, so concurrent Adds only
// contend when they land on the same shard.
type ShardedIndex struct {
	inner *shard.Index
	observed
}

// wrapSharded wraps a shard index, or its error, for the public API.
func wrapSharded(inner *shard.Index, err error) (*ShardedIndex, error) {
	if err != nil {
		return nil, fmt.Errorf("vaq: %w", err)
	}
	return &ShardedIndex{inner: inner, observed: observed{&inner.Attachments, inner}}, nil
}

// BuildSharded trains one model over data and encodes it across
// cfg.Shards parallel shards. cfg.Shards <= 1 builds a single shard.
func BuildSharded(data [][]float32, cfg Config) (*ShardedIndex, error) {
	m, err := vec.FromRows(data)
	if err != nil {
		return nil, fmt.Errorf("vaq: %w", err)
	}
	return buildShardedMatrices(m, m, cfg)
}

// BuildShardedWithTrainingSet trains on train and encodes data across
// cfg.Shards parallel shards.
func BuildShardedWithTrainingSet(train, data [][]float32, cfg Config) (*ShardedIndex, error) {
	tm, err := vec.FromRows(train)
	if err != nil {
		return nil, fmt.Errorf("vaq: train: %w", err)
	}
	dm, err := vec.FromRows(data)
	if err != nil {
		return nil, fmt.Errorf("vaq: data: %w", err)
	}
	return buildShardedMatrices(tm, dm, cfg)
}

func buildShardedMatrices(train, data *vec.Matrix, cfg Config) (*ShardedIndex, error) {
	s := cfg.Shards
	if s < 1 {
		s = 1
	}
	return wrapSharded(shard.Build(train, data, cfg.toCore(), shard.Options{
		Shards:         s,
		Policy:         cfg.ShardPolicy,
		SkewAlertRatio: cfg.ShardSkewAlertRatio,
	}))
}

// Len reports the total number of encoded vectors across all shards.
func (ix *ShardedIndex) Len() int { return ix.inner.Len() }

// Dim reports the expected query dimensionality.
func (ix *ShardedIndex) Dim() int { return ix.inner.Dim() }

// Shards reports the number of shards actually built (Config.Shards
// clamped to the dataset size).
func (ix *ShardedIndex) Shards() int { return ix.inner.Shards() }

// ShardLens reports each shard's current vector count — useful for
// watching how the assignment policy balances ingest.
func (ix *ShardedIndex) ShardLens() []int { return ix.inner.ShardLens() }

// Search returns the approximate k nearest neighbors of q with default
// options, merged across all shards.
func (ix *ShardedIndex) Search(q []float32, k int) ([]Result, error) {
	return ix.SearchWith(q, k, SearchOptions{})
}

// SearchWith returns the approximate k nearest neighbors under explicit
// options, merged across all shards.
func (ix *ShardedIndex) SearchWith(q []float32, k int, opt SearchOptions) ([]Result, error) {
	res, err := ix.inner.Search(q, k, coreOptions(opt))
	if err != nil {
		return nil, fmt.Errorf("vaq: %w", err)
	}
	return toResults(res), nil
}

// SearchBatch answers many queries in query order, fanning them out
// across workers outer goroutines (each query additionally scatters to
// per-shard searchers). Error semantics match Index.SearchBatch: k < 1 is
// rejected up front, per-query faults keep their slot nil and come back
// joined.
func (ix *ShardedIndex) SearchBatch(queries [][]float32, k int, opt SearchOptions, workers int) ([][]Result, error) {
	return searchBatch(queries, k, workers, func() (func([]float32) ([]Result, error), func()) {
		return func(q []float32) ([]Result, error) { return ix.SearchWith(q, k, opt) }, nil
	})
}

// Add encodes new vectors into one shard chosen by the assignment policy
// and returns the first global id assigned. Ids are reserved atomically,
// so concurrent Adds proceed in parallel and only batches routed to the
// same shard serialize.
func (ix *ShardedIndex) Add(vectors [][]float32) (int, error) {
	m, err := vec.FromRows(vectors)
	if err != nil {
		return 0, fmt.Errorf("vaq: %w", err)
	}
	first, err := ix.inner.Add(m)
	if err != nil {
		return 0, fmt.Errorf("vaq: %w", err)
	}
	return first, nil
}

// Metrics returns the merged telemetry snapshot: one record per query,
// per-shard pruning counters summed, latency measured end-to-end around
// the scatter-gather. Zero-valued when Config.DisableMetrics was set.
func (ix *ShardedIndex) Metrics() MetricsSnapshot {
	if m := ix.inner.Metrics(); m != nil {
		return toSnapshot(m.Snapshot())
	}
	return MetricsSnapshot{}
}

// ResetMetrics zeroes the merged registry and every per-shard registry.
func (ix *ShardedIndex) ResetMetrics() {
	ix.inner.Metrics().Reset()
	for i := 0; i < ix.inner.Shards(); i++ {
		ix.inner.Shard(i).Metrics().Reset()
	}
}

// PublishExpvar registers the merged registry on /debug/vars (and the
// Prometheus endpoint) under name, and each per-shard registry under
// name/shard-i.
func (ix *ShardedIndex) PublishExpvar(name string) { ix.inner.PublishExpvar(name) }

// PublishDiagnostics registers every shard's index-quality report under
// name/shard-i for GET /debug/vaq/report?index=....
func (ix *ShardedIndex) PublishDiagnostics(name string) { ix.inner.PublishDiagnostics(name) }

// AttachTracer points the sharded query path at an existing tracer (nil
// detaches), so several indexes can aggregate into one ring.
func (ix *ShardedIndex) AttachTracer(t *Tracer) { ix.inner.AttachTracer(t) }

// WriteTo serializes the sharded index: a "VAQS" envelope (shard count,
// assignment policy, id mappings) around one versioned single-index
// stream per shard.
func (ix *ShardedIndex) WriteTo(w io.Writer) (int64, error) { return ix.inner.WriteTo(w) }

// ReadSharded deserializes a sharded index written by WriteTo.
func ReadSharded(r io.Reader) (*ShardedIndex, error) { return ReadShardedLogged(r, nil) }

// ReadShardedLogged is ReadSharded with a structured logger attached to
// the loaded index's maintenance paths. nil behaves like ReadSharded.
func ReadShardedLogged(r io.Reader, l *slog.Logger) (*ShardedIndex, error) {
	return wrapSharded(shard.ReadLogged(r, l))
}

// Save writes the sharded index to a file (atomic rename).
func (ix *ShardedIndex) Save(path string) error { return ix.inner.Save(path) }

// LoadSharded reads a sharded index from a file.
func LoadSharded(path string) (*ShardedIndex, error) {
	return wrapSharded(shard.Load(path))
}
