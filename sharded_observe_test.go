package vaq

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"vaq/internal/metrics"
)

// TestShardedResetMetrics pins the reset contract: after traffic,
// ResetMetrics zeroes the merged registry AND every per-shard name/shard-i
// registry, including the scatter attribution.
func TestShardedResetMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data := genData(rng, 600, 24)
	cfg := Config{NumSubspaces: 6, Budget: 36, Seed: 11, Shards: 3}
	sx, err := BuildSharded(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < 6; qi++ {
		if _, err := sx.Search(data[qi*17], 5); err != nil {
			t.Fatal(err)
		}
	}
	// Preconditions: merged, per-shard and scatter counters all moved.
	if snap := sx.Metrics(); snap.Queries != 6 || snap.Sharded == nil || snap.Sharded.WindowQueries != 6 {
		t.Fatalf("precondition: merged snapshot %+v", snap)
	}
	for i := 0; i < sx.Shards(); i++ {
		if s := sx.inner.Shard(i).Metrics().Snapshot(); s.Queries == 0 {
			t.Fatalf("precondition: shard %d registry saw no queries", i)
		}
	}

	sx.ResetMetrics()

	snap := sx.Metrics()
	if snap.Queries != 0 || snap.CodesConsidered != 0 || snap.Lookups != 0 {
		t.Errorf("merged registry not zero after ResetMetrics: %+v", snap)
	}
	if snap.Sharded == nil {
		t.Fatal("ResetMetrics dropped the scatter configuration")
	}
	if snap.Sharded.WindowQueries != 0 {
		t.Errorf("scatter window has %d queries after ResetMetrics", snap.Sharded.WindowQueries)
	}
	for i, v := range snap.Sharded.CriticalPath {
		if v != 0 {
			t.Errorf("critical path[%d] = %d after ResetMetrics", i, v)
		}
	}
	for i := 0; i < sx.Shards(); i++ {
		s := sx.inner.Shard(i).Metrics().Snapshot()
		if s.Queries != 0 || s.CodesConsidered != 0 || s.Lookups != 0 {
			t.Errorf("shard %d registry not zero after ResetMetrics: queries=%d considered=%d",
				i, s.Queries, s.CodesConsidered)
		}
	}

	// The registries keep recording after the reset.
	if _, err := sx.Search(data[0], 5); err != nil {
		t.Fatal(err)
	}
	if snap := sx.Metrics(); snap.Queries != 1 {
		t.Errorf("post-reset traffic recorded %d queries, want 1", snap.Queries)
	}
}

// TestLoadedShardedScatterTelemetry pins that a sharded index read back
// from WriteTo keeps its scatter telemetry: the merged registry of the
// loaded copy carries a Sharded snapshot whose critical-path attribution
// covers every query, as on the built index.
func TestLoadedShardedScatterTelemetry(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	data := genData(rng, 500, 16)
	sx, err := BuildSharded(data, Config{NumSubspaces: 4, Budget: 24, Seed: 17, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := sx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSharded(&buf)
	if err != nil {
		t.Fatal(err)
	}
	const queries = 20
	for _, ix := range []*ShardedIndex{sx, loaded} {
		for qi := 0; qi < queries; qi++ {
			if _, err := ix.Search(data[qi*7], 5); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, ix := range map[string]*ShardedIndex{"built": sx, "loaded": loaded} {
		snap := ix.Metrics()
		if snap.Sharded == nil {
			t.Fatalf("%s: Metrics().Sharded is nil", name)
		}
		var sum uint64
		for _, v := range snap.Sharded.CriticalPath {
			sum += v
		}
		if snap.Queries != queries || sum != queries {
			t.Errorf("%s: %d queries, critical path sums to %d, want %d each", name, snap.Queries, sum, queries)
		}
	}
}

// TestShardedSLOBreachGauge walks the vaq_slo_breach gauge through a
// breach/recover/re-breach cycle on a sharded index's merged registry,
// scraping the Prometheus text surface each step.
func TestShardedSLOBreachGauge(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	data := genData(rng, 400, 16)
	cfg := Config{
		NumSubspaces: 4, Budget: 24, Seed: 13, Shards: 2,
		SLO: &SLO{LatencyTarget: time.Millisecond, LatencyObjective: 0.5, Window: 4},
	}
	sx, err := BuildSharded(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sx.PublishExpvar("slo_breach_sharded")
	defer func() {
		metrics.Publish("slo_breach_sharded", nil)
		for i := 0; i < sx.Shards(); i++ {
			metrics.Publish(fmt.Sprintf("slo_breach_sharded/shard-%d", i), nil)
		}
	}()

	gauge := func() string {
		t.Helper()
		var b strings.Builder
		if err := metrics.WritePrometheus(&b, "slo_breach_sharded"); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(b.String(), "\n") {
			if strings.HasPrefix(line, `vaq_slo_breach{index="slo_breach_sharded"}`) {
				return line[strings.LastIndex(line, " ")+1:]
			}
		}
		t.Fatal("scrape missing vaq_slo_breach for the sharded merged registry")
		return ""
	}

	// Real scatter latencies are nondeterministic, so drive the merged
	// registry's SLO evaluation with crafted durations — the same entry
	// point the scatter path uses.
	reg := sx.inner.Metrics()
	fast, slow := 50*time.Microsecond, 20*time.Millisecond

	reg.RecordSearch(metrics.SearchRecord{}, fast)
	if g := gauge(); g != "0" {
		t.Fatalf("healthy sharded gauge = %s, want 0", g)
	}
	for i := 0; i < 3; i++ {
		reg.RecordSearch(metrics.SearchRecord{}, slow)
	}
	if g := gauge(); g != "1" {
		t.Fatalf("breached sharded gauge = %s, want 1", g)
	}
	for i := 0; i < 4; i++ {
		reg.RecordSearch(metrics.SearchRecord{}, fast)
	}
	if g := gauge(); g != "0" {
		t.Fatalf("recovered sharded gauge = %s, want 0 (latch must re-arm)", g)
	}
	for i := 0; i < 3; i++ {
		reg.RecordSearch(metrics.SearchRecord{}, slow)
	}
	if g := gauge(); g != "1" {
		t.Fatalf("re-breached sharded gauge = %s, want 1", g)
	}
	if snap := sx.Metrics(); snap.SLO == nil {
		t.Error("sharded snapshot missing the SLO evaluation")
	}
}
