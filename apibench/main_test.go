package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// testSize keeps the workloads' shape at a size a test can afford.
var testSize = size{
	N: 1500, Train: 600, Queries: 100, GTQueries: 20,
	Subspaces: 8, Budget: 32, K: 100,
	Batch: 16, BatchWorkers: 2,
	AddBatch: 8, Adds: 100,
	SetupReps: 2,
}

// layersFor lists the per-layer metrics whose layer runs on w, so its
// traced run must report them above zero. The others read 0 on w: the
// layer does not run there (fast-mode and shard layers), or the public API
// does not expose it (a ShardedIndex has no BuildReport or Stats, and its
// tracer records only the shard spans).
func layersFor(w workload) []string {
	out := []string{
		"dataset.gen_s", "core.build_s",
		"core.lookups_per_q", "core.codes_considered_per_q", "core.clusters_visited_per_q",
		"core.ea_abandon_ratio",
		"vaq.allocs_per_q", "vaq.bytes_per_q", "vaq.api_self_us",
		"shard.search_overlap_add_frac", "shard.search_overlap_p50_us", "shard.len_skew",
		"trace.captured_frac",
	}
	if w.Shards == 0 {
		out = append(out,
			"pca.fit_s", "milp.alloc_s", "kmeans.train_s", "quantizer.encode_s",
			"core.ti_cluster_s", "core.layout_s",
			"pca.project_us", "quantizer.lut_fill_us", "core.cluster_rank_us", "core.scan_us",
			"quantizer.lut_entries_per_q", "core.lookups_per_lut_entry")
	} else {
		out = append(out,
			"shard.write_s", "shard.read_s", "shard.index_bytes",
			"shard.wait_us", "shard.scan_us", "shard.merge_us")
	}
	if w.Accuracy == "fast" {
		out = append(out, "core.set_accuracy_s", "core.lut_quant_us", "core.rerank_us")
	}
	return out
}

type benchMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

type benchFile struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func names(ms []benchMetric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func testRun(t *testing.T, w workload, trace bool) result {
	t.Helper()
	inProcess := func(o options, _ int) (part, error) { return measure(o), nil }
	_, res, err := run(options{w: w, sz: testSize, seed: 7, seconds: 0.4, trace: trace}, inProcess)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%s: %d of %d calls failed", w.Name, res.Failed, res.Attempted)
	}
	return res
}

// TestBenchmarkFile checks BENCHMARK.json against the code: the same
// workloads, every metric with the unit the code reports it in, and a
// recall floor for every workload in the command.
func TestBenchmarkFile(t *testing.T) {
	b := readBenchFile(t)
	var ws []string
	for _, w := range b.Workloads {
		ws = append(ws, w.Name)
		if _, err := lookupWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(ws) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the code %d", len(ws), len(workloads))
	}
	for _, m := range append(append([]benchMetric(nil), b.EndToEnd...), b.PerLayer...) {
		if units[m.Name] != m.Unit {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q in the code", m.Name, m.Unit, units[m.Name])
		}
	}
	if got, want := len(b.EndToEnd)+len(b.PerLayer), len(units); got != want {
		t.Errorf("BENCHMARK.json names %d metrics, the code %d", got, want)
	}
	i := 0
	for i < len(b.Command) && b.Command[i] != "--recall-floor" {
		i++
	}
	if i+1 >= len(b.Command) {
		t.Fatal("command has no --recall-floor")
	}
	for _, w := range ws {
		if _, err := recallFloor(b.Command[i+1], w); err != nil {
			t.Error(err)
		}
	}
}

// TestUntracedRunReportsEndToEnd checks that an untraced run reports
// exactly the end-to-end metrics, all of them above zero.
func TestUntracedRunReportsEndToEnd(t *testing.T) {
	want := names(readBenchFile(t).EndToEnd)
	for _, w := range workloads {
		res := testRun(t, w, false)
		if got := keys(res.Metrics); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: metrics %v, want %v", w.Name, got, want)
		}
		for name, m := range res.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: %s = %v, want > 0", w.Name, name, m.Value)
			}
		}
	}
}

// TestTracedRunCoversLayers checks that a traced run reports exactly the
// per-layer metrics, and every layer that runs on the workload above zero
// with no trace lost.
func TestTracedRunCoversLayers(t *testing.T) {
	want := names(readBenchFile(t).PerLayer)
	for _, w := range workloads {
		res := testRun(t, w, true)
		if got := keys(res.Metrics); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: metrics %v, want %v", w.Name, got, want)
		}
		for _, name := range layersFor(w) {
			if v := res.Metrics[name].Value; !(v > 0) {
				t.Errorf("%s: %s = %v, want > 0", w.Name, name, v)
			}
		}
		if v := res.Metrics["trace.captured_frac"].Value; v != 1 {
			t.Errorf("%s: trace.captured_frac = %v, want 1", w.Name, v)
		}
	}
}

// TestWorkCountersRepeat checks that two runs on the same seed report
// identical work counters.
func TestWorkCountersRepeat(t *testing.T) {
	for _, w := range workloads {
		a, b := testRun(t, w, true), testRun(t, w, true)
		for _, name := range workCounters {
			if a.Metrics[name] != b.Metrics[name] {
				t.Errorf("%s: %s = %v then %v", w.Name, name, a.Metrics[name].Value, b.Metrics[name].Value)
			}
		}
	}
}

var workCounters = []string{
	"core.lookups_per_q", "core.codes_considered_per_q", "core.clusters_visited_per_q",
	"core.ti_skip_ratio", "core.ea_abandon_ratio",
	"quantizer.lut_entries_per_q", "core.lookups_per_lut_entry",
}
