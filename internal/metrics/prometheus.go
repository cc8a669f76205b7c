package metrics

import (
	"fmt"
	"io"
	"net/http"
	"sort"
)

// PrometheusContentType is the text exposition format version this package
// emits (the format every Prometheus-compatible scraper accepts).
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

func init() {
	http.HandleFunc("/debug/vaq/metrics", handlePrometheus)
}

// handlePrometheus serves every published registry (metrics.Publish) in
// Prometheus text format; ?index=NAME restricts to one.
func handlePrometheus(w http.ResponseWriter, r *http.Request) {
	var names []string
	if want := r.URL.Query().Get("index"); want != "" {
		if _, ok := registry.Load(want); !ok {
			http.Error(w, fmt.Sprintf("no index published as %q", want), http.StatusNotFound)
			return
		}
		names = []string{want}
	}
	w.Header().Set("Content-Type", PrometheusContentType)
	WritePrometheus(w, names...) //nolint:errcheck // best-effort HTTP body
	WriteRuntimeMetrics(w)       //nolint:errcheck // best-effort HTTP body
}

// promFamily describes one exported counter family.
type promFamily struct {
	name string
	help string
	val  func(s Snapshot) uint64
}

var promCounters = []promFamily{
	{"vaq_queries_total", "Completed searches.", func(s Snapshot) uint64 { return s.Queries }},
	{"vaq_errors_total", "Searches rejected by validation or execution, and Adds rejected for non-finite input.", func(s Snapshot) uint64 { return s.Errors }},
	{"vaq_clusters_visited_total", "TI clusters scanned.", func(s Snapshot) uint64 { return s.ClustersVisited }},
	{"vaq_codes_considered_total", "Encoded vectors reached by the scan loop.", func(s Snapshot) uint64 { return s.CodesConsidered }},
	{"vaq_codes_skipped_ti_total", "Codes pruned by the triangle-inequality bound.", func(s Snapshot) uint64 { return s.CodesSkippedTI }},
	{"vaq_codes_abandoned_ea_total", "Codes whose lookup accumulation was cut short.", func(s Snapshot) uint64 { return s.CodesAbandonedEA }},
	{"vaq_lookups_total", "Subspace table accumulations performed.", func(s Snapshot) uint64 { return s.Lookups }},
	{"vaq_recall_samples_total", "Queries shadow-verified against an exact scan.", func(s Snapshot) uint64 { return s.RecallSamples }},
	{"vaq_recall_hits_total", "True neighbors found in sampled approximate answers.", func(s Snapshot) uint64 { return s.RecallHits }},
	{"vaq_recall_expected_total", "True neighbors expected in sampled answers.", func(s Snapshot) uint64 { return s.RecallExpected }},
}

// promGauges are the scalar drift gauges; vaq_subspace_mse (vector, one
// sample per subspace) is emitted alongside them in WritePrometheus.
var promGauges = []struct {
	name string
	help string
	val  func(s Snapshot) float64
}{
	{"vaq_drift_ratio", "EWMA incoming-vector MSE over the Build-time baseline (1 = no drift, 0 = no baseline).",
		func(s Snapshot) float64 { return s.DriftRatio }},
	{"vaq_dead_codewords", "Dictionary entries no code currently references, summed over subspaces.",
		func(s Snapshot) float64 { return float64(s.DeadCodewords) }},
	{"vaq_drift_alert", "1 while the drift ratio sits above Config.DriftAlertRatio.",
		func(s Snapshot) float64 {
			if s.DriftAlert {
				return 1
			}
			return 0
		}},
}

// promSLOGauges are the error-budget gauges, emitted only for indexes with
// a configured SLO (ConfigureSLO).
var promSLOGauges = []struct {
	name string
	help string
	val  func(s *SLOSnapshot) float64
}{
	{"vaq_slo_latency_budget_remaining", "Unspent fraction of the allowed latency-target violations over the sliding window (< 0 = objective broken).",
		func(s *SLOSnapshot) float64 { return s.LatencyBudgetRemaining }},
	{"vaq_slo_recall_budget_remaining", "Normalized headroom of windowed observed recall above the MinRecall objective (< 0 = objective broken).",
		func(s *SLOSnapshot) float64 { return s.RecallBudgetRemaining }},
	{"vaq_slo_burn_rate", "Latency violation rate over the allowed rate (1 = spending exactly the budget, > 1 = burning it down).",
		func(s *SLOSnapshot) float64 { return s.BurnRate }},
	{"vaq_slo_breach", "1 while an SLO error budget sits exhausted (the edge-triggered breach latch, scrape-visible).",
		func(s *SLOSnapshot) float64 {
			if s.LatencyExhausted || s.RecallExhausted {
				return 1
			}
			return 0
		}},
}

// promShardedGauges are the scatter-gather skew gauges, emitted only for
// merged sharded registries (ConfigureSharded).
var promShardedGauges = []struct {
	name string
	help string
	val  func(s *ShardedSnapshot) float64
}{
	{"vaq_shard_skew_ratio", "Windowed mean of per-query slowest-shard latency over mean shard latency (1 = balanced scatter).",
		func(s *ShardedSnapshot) float64 { return s.SkewRatio }},
	{"vaq_shard_load_imbalance", "Busiest shard's windowed latency total over the mean shard's (persistent skew).",
		func(s *ShardedSnapshot) float64 { return s.LoadImbalance }},
	{"vaq_skew_alert", "1 while the windowed skew ratio sits at or above the configured alert threshold.",
		func(s *ShardedSnapshot) float64 {
			if s.SkewAlert {
				return 1
			}
			return 0
		}},
}

// WritePrometheus emits the published registries in Prometheus text
// exposition format v0.0.4, each metric labeled with the expvar name it
// was published under. With names given, only those indexes are emitted
// (unknown names are skipped); otherwise all published indexes are, in
// sorted-name order so the output is deterministic.
func WritePrometheus(w io.Writer, names ...string) error {
	if len(names) == 0 {
		registry.Range(func(k, _ any) bool {
			names = append(names, k.(string))
			return true
		})
		sort.Strings(names)
	}
	snaps := make(map[string]Snapshot, len(names))
	kept := names[:0]
	for _, name := range names {
		v, ok := registry.Load(name)
		if !ok {
			continue
		}
		snaps[name] = v.(*IndexMetrics).Snapshot()
		kept = append(kept, name)
	}
	return writePrometheusSnaps(w, kept, snaps)
}

// WritePrometheusFor emits one registry in Prometheus text format under the
// given index label, published or not — the incident-bundle writer uses it
// so a bundle's scrape reflects exactly the index that triggered it.
func WritePrometheusFor(w io.Writer, name string, m *IndexMetrics) error {
	if m == nil {
		return nil
	}
	return writePrometheusSnaps(w, []string{name}, map[string]Snapshot{name: m.Snapshot()})
}

// writePrometheusSnaps is the shared exposition body behind WritePrometheus
// and WritePrometheusFor.
func writePrometheusSnaps(w io.Writer, names []string, snaps map[string]Snapshot) error {
	for _, fam := range promCounters {
		if err := writeFamilyHeader(w, fam.name, fam.help); err != nil {
			return err
		}
		for _, name := range names {
			if _, err := fmt.Fprintf(w, "%s{index=%q} %d\n", fam.name, name, fam.val(snaps[name])); err != nil {
				return err
			}
		}
	}
	// Quantization-drift gauges (overwritten by the index on Build/Add, not
	// accumulated — TYPE gauge so scrapers treat dips as real).
	if err := writeTypedHeader(w, "vaq_subspace_mse",
		"Per-subspace EWMA reconstruction MSE of vectors folded in by Add (seeded with the Build-time baseline).", "gauge"); err != nil {
		return err
	}
	for _, name := range names {
		for sub, v := range snaps[name].SubspaceMSE {
			if _, err := fmt.Fprintf(w, "vaq_subspace_mse{index=%q,subspace=\"%d\"} %g\n", name, sub, v); err != nil {
				return err
			}
		}
	}
	for _, fam := range promGauges {
		if err := writeTypedHeader(w, fam.name, fam.help, "gauge"); err != nil {
			return err
		}
		for _, name := range names {
			if _, err := fmt.Fprintf(w, "%s{index=%q} %g\n", fam.name, name, fam.val(snaps[name])); err != nil {
				return err
			}
		}
	}
	// SLO error-budget gauges: only indexes with configured objectives emit
	// rows, and the families appear only when at least one does, so
	// SLO-free deployments scrape unchanged output.
	var sloNames []string
	for _, name := range names {
		if snaps[name].SLO != nil {
			sloNames = append(sloNames, name)
		}
	}
	if len(sloNames) > 0 {
		for _, fam := range promSLOGauges {
			if err := writeTypedHeader(w, fam.name, fam.help, "gauge"); err != nil {
				return err
			}
			for _, name := range sloNames {
				if _, err := fmt.Fprintf(w, "%s{index=%q} %g\n", fam.name, name, fam.val(snaps[name].SLO)); err != nil {
					return err
				}
			}
		}
	}
	// Multi-window burn-rate evaluation: only registries with an armed
	// history collector (SetBurn) emit rows, one per (objective, rule)
	// pair, and the families appear only when at least one does, so
	// history-free deployments scrape unchanged output.
	var burnNames []string
	for _, name := range names {
		if b := snaps[name].Burn; b != nil && len(b.Rules) > 0 {
			burnNames = append(burnNames, name)
		}
	}
	if len(burnNames) > 0 {
		writeBurn := func(family, help string, val func(r BurnRuleStatus) float64) error {
			if err := writeTypedHeader(w, family, help, "gauge"); err != nil {
				return err
			}
			for _, name := range burnNames {
				for _, r := range snaps[name].Burn.Rules {
					if _, err := fmt.Fprintf(w, "%s{index=%q,objective=%q,rule=%q} %g\n",
						family, name, r.Objective, r.Rule, val(r)); err != nil {
						return err
					}
				}
			}
			return nil
		}
		if err := writeBurn("vaq_burn_rate",
			"Error-budget burn rate over the rule's long window (1 = spending exactly the budget).",
			func(r BurnRuleStatus) float64 { return r.Burn }); err != nil {
			return err
		}
		if err := writeBurn("vaq_burn_short_rate",
			"Error-budget burn rate over the rule's short confirmation window.",
			func(r BurnRuleStatus) float64 { return r.ShortBurn }); err != nil {
			return err
		}
		if err := writeBurn("vaq_burn_threshold",
			"Burn rate at or above which the rule fires (both windows must agree).",
			func(r BurnRuleStatus) float64 { return r.Threshold }); err != nil {
			return err
		}
		if err := writeBurn("vaq_burn_alert",
			"1 while the multi-window burn-rate rule is firing (the vaq.burn.* edge latch).",
			func(r BurnRuleStatus) float64 {
				if r.Firing {
					return 1
				}
				return 0
			}); err != nil {
			return err
		}
	}
	// Scatter-gather straggler/skew telemetry: only merged sharded
	// registries (ConfigureSharded) emit rows, and the families appear only
	// when at least one does, so unsharded deployments scrape unchanged
	// output.
	var shardedNames []string
	for _, name := range names {
		if snaps[name].Sharded != nil {
			shardedNames = append(shardedNames, name)
		}
	}
	if len(shardedNames) > 0 {
		if err := writeFamilyHeader(w, "vaq_shard_critical_path_total",
			"Queries where this shard was the slowest of the scatter (the critical path)."); err != nil {
			return err
		}
		for _, name := range shardedNames {
			for shard, v := range snaps[name].Sharded.CriticalPath {
				if _, err := fmt.Fprintf(w, "vaq_shard_critical_path_total{index=%q,shard=\"%d\"} %d\n", name, shard, v); err != nil {
					return err
				}
			}
		}
		if err := writeFamilyHeader(w, "vaq_shard_hits_total",
			"Final top-k results this shard contributed to merged answers."); err != nil {
			return err
		}
		for _, name := range shardedNames {
			for shard, v := range snaps[name].Sharded.Hits {
				if _, err := fmt.Fprintf(w, "vaq_shard_hits_total{index=%q,shard=\"%d\"} %d\n", name, shard, v); err != nil {
					return err
				}
			}
		}
		for _, fam := range promShardedGauges {
			if err := writeTypedHeader(w, fam.name, fam.help, "gauge"); err != nil {
				return err
			}
			for _, name := range shardedNames {
				if _, err := fmt.Fprintf(w, "%s{index=%q} %g\n", fam.name, name, fam.val(snaps[name].Sharded)); err != nil {
					return err
				}
			}
		}
		if err := writeTypedHeader(w, "vaq_shard_straggler_delta_seconds",
			"Per-query latency gap between the slowest shard and the runner-up.", "histogram"); err != nil {
			return err
		}
		for _, name := range shardedNames {
			if err := writeHistogram(w, "vaq_shard_straggler_delta_seconds", name, snaps[name].Sharded.StragglerDelta); err != nil {
				return err
			}
		}
	}
	// Attribution histograms: plain counter families with a position label
	// (they are distributions over subspace depth / cluster rank, not over
	// an observed value, so buckets-as-counters is the honest encoding).
	if err := writeFamilyHeader(w, "vaq_ea_abandon_depth_total",
		"Codes early-abandoned after exactly this many table lookups."); err != nil {
		return err
	}
	for _, name := range names {
		for depth, v := range snaps[name].AbandonDepths {
			if v == 0 {
				continue
			}
			if _, err := fmt.Fprintf(w, "vaq_ea_abandon_depth_total{index=%q,lookups=\"%d\"} %d\n", name, depth, v); err != nil {
				return err
			}
		}
	}
	if err := writeFamilyHeader(w, "vaq_ti_skips_by_rank_total",
		"Codes TI-pruned inside the rank-th nearest visited cluster (last rank clamps the tail)."); err != nil {
		return err
	}
	for _, name := range names {
		for rank, v := range snaps[name].TISkipsByRank {
			if v == 0 {
				continue
			}
			if _, err := fmt.Fprintf(w, "vaq_ti_skips_by_rank_total{index=%q,rank=\"%d\"} %d\n", name, rank, v); err != nil {
				return err
			}
		}
	}
	// Latency histogram in native Prometheus histogram form.
	if err := writeTypedHeader(w, "vaq_query_latency_seconds", "Per-query wall time (scan path).", "histogram"); err != nil {
		return err
	}
	for _, name := range names {
		if err := writeHistogram(w, "vaq_query_latency_seconds", name, snaps[name].Latency); err != nil {
			return err
		}
	}
	return nil
}

// writeHistogram emits one HistogramSnapshot in native Prometheus
// histogram form (cumulative buckets, sum, count) under fam{index=name}.
func writeHistogram(w io.Writer, fam, name string, h HistogramSnapshot) error {
	var cum uint64
	for i, c := range h.Buckets {
		cum += c
		le := BucketUpperBound(i).Seconds()
		if _, err := fmt.Fprintf(w, "%s_bucket{index=%q,le=\"%g\"} %d\n", fam, name, le, cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{index=%q,le=\"+Inf\"} %d\n", fam, name, h.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum{index=%q} %g\n", fam, name, float64(h.SumNs)/1e9); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count{index=%q} %d\n", fam, name, h.Count)
	return err
}

func writeFamilyHeader(w io.Writer, name, help string) error {
	return writeTypedHeader(w, name, help, "counter")
}

func writeTypedHeader(w io.Writer, name, help, typ string) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	return err
}
