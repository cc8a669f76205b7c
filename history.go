package vaq

import (
	"vaq/internal/history"
)

// HistoryConfig tunes a metrics history collector: sampling cadence,
// per-tier ring capacities and bucket widths, and the multi-window
// burn-rate rule ladder (see the field docs in internal/history.Config).
type HistoryConfig = history.Config

// HistoryCollector is an armed metrics history collector: a background
// goroutine sampling the index's telemetry into per-series lock-free ring
// buffers with tiered retention (raw cadence → 10s → 1m aggregates).
// Obtain one with EnableHistory; query it with Series/Dump or through the
// /debug/vaq/history endpoint (PublishHistory).
type HistoryCollector = history.Collector

// HistorySeries is one retained series; its Range, RateOverWindow,
// DeltaOverWindow and Last methods are safe to call while sampling runs.
type HistorySeries = history.Series

// HistoryDump is a frozen capture of everything a collector retains — the
// JSON body of /debug/vaq/history and the history.json incident-bundle
// member.
type HistoryDump = history.Dump

// BurnRule is one window of the multi-window multi-burn-rate SLO alert
// ladder a collector evaluates (default: fast 5m at 14.4x plus slow 1h at
// 6x the allowed error rate).
type BurnRule = history.BurnRule

// DefaultBurnRules returns the default two-window burn-rate ladder.
func DefaultBurnRules() []BurnRule { return history.DefaultBurnRules() }

// ValidateHistoryDump checks a dump's schema version and per-series
// invariants (monotonic raw timestamps, well-formed downsampled buckets).
func ValidateHistoryDump(d *HistoryDump) error { return history.ValidateDump(d) }

// PublishHistory registers a collector under name on the
// /debug/vaq/history endpoint (JSON dumps and ranges, ?format=text
// sparkline view). Publishing nil removes the name.
func PublishHistory(name string, c *HistoryCollector) { history.Publish(name, c) }

// EnableHistory arms a metrics history collector on the index: trends
// (QPS, prune rate, drift slope, recall), downsampled retention, and —
// when an SLO is configured and cfg.DisableBurn is false — canonical
// multi-window multi-burn-rate alerting (vaq.burn.* sources on the alert
// bus) replacing the instantaneous SLO exhaustion edge while armed. name
// labels the merged target (use the published index name). On a
// ShardedIndex every per-shard registry is also watched under
// name/shard-i, so per-shard trends are queryable next to the merged
// ones; burn-rate rules arm only on the merged registry (the one carrying
// the end-to-end SLO). Disarm with DisableHistory.
func (ix *observed) EnableHistory(name string, cfg HistoryConfig) (*HistoryCollector, error) {
	return ix.att.EnableHistory(name, cfg)
}

// DisableHistory stops the collector after a final sweep and hands SLO
// alerting back to the instantaneous exhaustion edge. No-op when none is
// armed.
func (ix *observed) DisableHistory() { ix.att.DisableHistory() }

// History returns the armed collector, or nil.
func (ix *observed) History() *HistoryCollector { return ix.att.History() }
