// Command apibench measures the VAQ index through its public API: set-up
// (data generation, build, accuracy switch or persistence round trip),
// single-client Search, SearchBatch, and Add beside a concurrent reader.
// It checks every answer, prints a provenance line, and prints as its
// last line one JSON object with the end-to-end metrics (--trace 0) or
// the per-layer metrics (--trace 1). README.md lists the workloads and
// what each metric means.
//
//	go run . --workload search-sald-exact --seed 1 --seconds 10 --trace 0 \
//	    --recall-floor search-sald-exact=0.8
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// units names every metric the benchmark can report, with its unit.
var units = map[string]string{
	// End to end.
	"setup_s":       "s",
	"search_qps":    "1/s",
	"search_p50_us": "us",
	"search_p99_us": "us",
	"batch_qps":     "1/s",
	"batch_p50_ms":  "ms",
	"batch_p95_ms":  "ms",
	"add_vps":       "1/s",
	"add_p50_ms":    "ms",
	"add_p95_ms":    "ms",
	"recall_at_100": "ratio",
	"heap_mb":       "MB",
	// Build and set-up steps.
	"dataset.gen_s":       "s",
	"core.build_s":        "s",
	"pca.fit_s":           "s",
	"milp.alloc_s":        "s",
	"kmeans.train_s":      "s",
	"quantizer.encode_s":  "s",
	"core.ti_cluster_s":   "s",
	"core.layout_s":       "s",
	"core.set_accuracy_s": "s",
	"shard.write_s":       "s",
	"shard.read_s":        "s",
	"shard.index_bytes":   "bytes",
	// Query phases, traced.
	"pca.project_us":        "us",
	"quantizer.lut_fill_us": "us",
	"core.lut_quant_us":     "us",
	"core.cluster_rank_us":  "us",
	"core.scan_us":          "us",
	"core.ea_resume_us":     "us",
	"core.rerank_us":        "us",
	"vaq.api_self_us":       "us",
	"shard.wait_us":         "us",
	"shard.scan_us":         "us",
	"shard.merge_us":        "us",
	// Work counters, untraced.
	"core.lookups_per_q":          "count",
	"core.codes_considered_per_q": "count",
	"core.clusters_visited_per_q": "count",
	"core.ti_skip_ratio":          "ratio",
	"core.ea_abandon_ratio":       "ratio",
	"quantizer.lut_entries_per_q": "count",
	"core.lookups_per_lut_entry":  "ratio",
	// Allocation and GC, untraced.
	"vaq.allocs_per_q":    "count",
	"vaq.bytes_per_q":     "bytes",
	"runtime.gc_per_1k_q": "count",
	// Ingest contention.
	"shard.search_overlap_add_frac": "ratio",
	"shard.search_overlap_p50_us":   "us",
	"shard.len_skew":                "ratio",
	// The tracer itself.
	"trace.overhead_frac":       "ratio",
	"trace.captured_frac":       "ratio",
	"trace.dropped_spans_per_q": "count",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	recall    float64           // the counter pass's recall, reported on failure
}

// provenance identifies what a result was measured on; results whose
// provenance differs are not comparable.
type provenance struct {
	Workload    workload `json:"workload"`
	Size        size     `json:"size"`
	Seed        int64    `json:"seed"`
	Seconds     float64  `json:"seconds"`
	Trace       bool     `json:"trace"`
	RecallFloor float64  `json:"recall_floor"`
	NumCPU      int      `json:"nproc"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	GoVersion   string   `json:"go_version"`
	Platform    string   `json:"platform"`
	Fingerprint string   `json:"config_fingerprint,omitempty"`
	// ProbeMedianNs is each phase's median speed-probe time; Raw holds
	// the end-to-end timings before calibration (see calibrate.go).
	ProbeMedianNs map[string]int64   `json:"probe_median_ns,omitempty"`
	Samples       map[string]int     `json:"samples,omitempty"` // calls each phase's figures are taken over
	Raw           map[string]float64 `json:"raw_uncalibrated,omitempty"`
}

type options struct {
	w           workload
	sz          size
	seed        int64
	seconds     float64
	trace       bool
	recallFloor float64
	args        []string // the command line, passed on to the child processes
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name (see README.md)")
		seed    = flag.Int64("seed", 1, "seed the inputs are generated from")
		seconds = flag.Float64("seconds", 10, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 reports the per-layer metrics from a traced run")
		floors  = flag.String("recall-floor", "", "comma-separated workload=min_recall_at_100 list")
		child   = flag.Bool("child", false, "measure one set-up and print its raw part of the run (see run.go)")
	)
	flag.Parse()
	o, err := parseOptions(*name, *seed, *seconds, *trace, *floors)
	if err != nil {
		fmt.Fprintln(os.Stderr, "apibench:", err)
		os.Exit(2)
	}
	if *child {
		if err := json.NewEncoder(os.Stdout).Encode(measure(o)); err != nil {
			fmt.Fprintln(os.Stderr, "apibench:", err)
			os.Exit(1)
		}
		return
	}
	prov, res, err := run(o, spawn)
	if err != nil {
		fmt.Fprintln(os.Stderr, "apibench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]provenance{"provenance": prov}); err != nil {
		fmt.Fprintln(os.Stderr, "apibench:", err)
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "apibench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "apibench: incorrect: %d of %d calls failed, recall_at_100 %.4f (floor %.4f)\n",
			res.Failed, res.Attempted, res.recall, o.recallFloor)
		os.Exit(1)
	}
}

func parseOptions(name string, seed int64, seconds float64, trace int, floors string) (options, error) {
	w, err := lookupWorkload(name)
	if err != nil {
		return options{}, err
	}
	if seconds <= 0 {
		return options{}, fmt.Errorf("--seconds must be positive, got %v", seconds)
	}
	if trace != 0 && trace != 1 {
		return options{}, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	floor, err := recallFloor(floors, name)
	if err != nil {
		return options{}, err
	}
	return options{w: w, sz: fullSize, seed: seed, seconds: seconds, trace: trace == 1, recallFloor: floor, args: os.Args[1:]}, nil
}

// recallFloor picks the named workload's floor out of a
// "workload=floor,..." list.
func recallFloor(spec, name string) (float64, error) {
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok || k != name {
			continue
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f < 0 || f > 1 {
			return 0, fmt.Errorf("bad recall floor %q for %s", v, name)
		}
		return f, nil
	}
	return 0, fmt.Errorf("--recall-floor names no floor for workload %s", name)
}

// layerNames lists every per-layer metric: all of units except the
// end-to-end ones.
func layerNames() []string {
	var out []string
	for name := range units {
		if !endToEnd[name] {
			out = append(out, name)
		}
	}
	return out
}

var endToEnd = map[string]bool{
	"setup_s": true, "search_qps": true, "search_p50_us": true, "search_p99_us": true,
	"batch_qps": true, "batch_p50_ms": true, "batch_p95_ms": true,
	"add_vps": true, "add_p50_ms": true, "add_p95_ms": true,
	"recall_at_100": true, "heap_mb": true,
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "apibench: "+format+"\n", args...)
}
