package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"time"

	"vaq"
	"vaq/internal/dataset"
	"vaq/internal/vec"
)

// target is the part of the public API the phases drive; *vaq.Index and
// *vaq.ShardedIndex both satisfy it.
type target interface {
	Len() int
	Search(q []float32, k int) ([]vaq.Result, error)
	SearchBatch(queries [][]float32, k int, opt vaq.SearchOptions, workers int) ([][]vaq.Result, error)
	Add(vectors [][]float32) (int, error)
	Metrics() vaq.MetricsSnapshot
	EnableTracing(cfg vaq.TraceConfig) *vaq.Tracer
	DisableTracing()
	ConfigFingerprint() string
}

// workload is one index configuration. Every workload runs the same
// closed-loop phases (see phases.go) against its index.
type workload struct {
	Name     string `json:"name"`
	Dataset  string `json:"dataset"`
	Shards   int    `json:"shards"` // 0 serves an unsharded vaq.Index
	Accuracy string `json:"accuracy"`
}

var workloads = []workload{
	{Name: "search-sald-exact", Dataset: "SALD", Accuracy: "exact"},
	{Name: "batch-deep-fast", Dataset: "DEEP", Accuracy: "fast"},
	{Name: "ingest-sharded", Dataset: "SALD", Shards: 2, Accuracy: "exact"},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// size holds every input size of a run. The benchmark uses fullSize; the
// package test shrinks it.
type size struct {
	N            int `json:"n"`             // base vectors built into the index
	Train        int `json:"train"`         // training sample (first Train base vectors)
	Queries      int `json:"queries"`       // query set, cycled by the phases
	GTQueries    int `json:"gt_queries"`    // strided query subset with brute-force ground truth
	Subspaces    int `json:"subspaces"`     // Config.NumSubspaces
	Budget       int `json:"budget"`        // Config.Budget (bits per vector)
	K            int `json:"k"`             // neighbours per query
	Batch        int `json:"batch"`         // queries per SearchBatch call
	BatchWorkers int `json:"batch_workers"` // SearchBatch workers
	AddBatch     int `json:"add_batch"`     // vectors per Add call
	Adds         int `json:"adds"`          // Add calls in each part's ingest phase
	SetupReps    int `json:"setup_reps"`    // parts of a run, each with its own set-up; setup_s is their median
}

var fullSize = size{
	N: 10000, Train: 4000, Queries: 1000, GTQueries: 200,
	Subspaces: 16, Budget: 128, K: 100,
	Batch: 16, BatchWorkers: 2,
	AddBatch: 16, Adds: 200,
	SetupReps: 3,
}

// inputs is the seeded data of one run.
type inputs struct {
	base    [][]float32 // built into the index
	train   [][]float32 // prefix of base
	extra   [][]float32 // the vectors the ingest phase appends
	queries [][]float32
}

func genInputs(w workload, sz size, seed int64) (*inputs, error) {
	extra := sz.Adds * sz.AddBatch
	ds, err := dataset.Large(w.Dataset, sz.N+extra, sz.Queries, seed)
	if err != nil {
		return nil, err
	}
	base := rows(ds.Base)
	return &inputs{
		base:    base[:sz.N],
		train:   base[:sz.Train],
		extra:   base[sz.N:],
		queries: rows(ds.Queries),
	}, nil
}

func rows(m *vec.Matrix) [][]float32 {
	out := make([][]float32, m.Rows)
	for i := range out {
		out[i] = m.Row(i)
	}
	return out
}

func (w workload) config(sz size) vaq.Config {
	return vaq.Config{NumSubspaces: sz.Subspaces, Budget: sz.Budget, Seed: 1, Shards: w.Shards}
}

// setupResult is one set-up: the served index, its inputs, the seconds
// each set-up step took (per-layer metric name → seconds), and the live
// heap the set-up added.
type setupResult struct {
	ix     target
	in     *inputs
	total  float64
	layers map[string]float64
	heapMB float64
}

// setup generates the inputs and builds the served index: a plain build,
// plus the switch to AccuracyFast on fast workloads, or a WriteTo +
// ReadSharded round trip on sharded ones (the loaded copy is served).
func setup(w workload, sz size, seed int64) (*setupResult, error) {
	r := &setupResult{layers: map[string]float64{}}
	t0 := time.Now()
	in, err := genInputs(w, sz, seed)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", w.Dataset, err)
	}
	r.in = in
	r.layers["dataset.gen_s"] = time.Since(t0).Seconds()

	cfg := w.config(sz)
	t := time.Now()
	if w.Shards == 0 {
		ix, err := vaq.BuildWithTrainingSet(in.train, in.base, cfg)
		if err != nil {
			return nil, fmt.Errorf("build: %w", err)
		}
		r.layers["core.build_s"] = time.Since(t).Seconds()
		rep := ix.BuildReport()
		r.layers["pca.fit_s"] = rep.PCA.Seconds()
		r.layers["milp.alloc_s"] = rep.Allocation.Seconds()
		r.layers["kmeans.train_s"] = rep.Training.Seconds()
		r.layers["quantizer.encode_s"] = rep.Encoding.Seconds()
		r.layers["core.ti_cluster_s"] = rep.TIClustering.Seconds()
		r.layers["core.layout_s"] = rep.Layout.Seconds()
		if w.Accuracy == "fast" {
			t = time.Now()
			if err := ix.SetAccuracyMode(vaq.AccuracyFast); err != nil {
				return nil, fmt.Errorf("set accuracy: %w", err)
			}
			r.layers["core.set_accuracy_s"] = time.Since(t).Seconds()
		}
		r.ix = ix
	} else {
		built, err := vaq.BuildShardedWithTrainingSet(in.train, in.base, cfg)
		if err != nil {
			return nil, fmt.Errorf("build sharded: %w", err)
		}
		r.layers["core.build_s"] = time.Since(t).Seconds()
		var buf bytes.Buffer
		t = time.Now()
		if _, err := built.WriteTo(&buf); err != nil {
			return nil, fmt.Errorf("write sharded: %w", err)
		}
		r.layers["shard.write_s"] = time.Since(t).Seconds()
		r.layers["shard.index_bytes"] = float64(buf.Len())
		t = time.Now()
		loaded, err := vaq.ReadSharded(&buf)
		if err != nil {
			return nil, fmt.Errorf("read sharded: %w", err)
		}
		r.layers["shard.read_s"] = time.Since(t).Seconds()
		r.ix = loaded
	}
	r.total = time.Since(t0).Seconds()
	return r, nil
}

// setupOnce runs setup and measures the live heap it adds.
func setupOnce(w workload, sz size, seed int64) (*setupResult, error) {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	r, err := setup(w, sz, seed)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	r.heapMB = (float64(ms.HeapAlloc) - float64(before)) / (1 << 20)
	return r, nil
}

func medianFloat(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
