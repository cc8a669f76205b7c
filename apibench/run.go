package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"time"
)

// A run is SetupReps processes, one after the other. Each child process
// sets up once, checks its index and runs every phase for its share of
// --seconds; the parent pools what they measured. On the machine this was
// tuned on, how fast Search runs against the speed probe is a property of
// the process: within one process the ratio held within a few percent for
// minutes, while from one process to the next it moved by up to 25%
// (calibrated median Search time on one workload about 330 or 440 us).
// Pooling several processes per run averages that out, and the set-ups
// that setup_s needs are the children's.
const readShare = 0.4 // share of a child's time for each of the two time-boxed read phases

// part is what one child process measured.
type part struct {
	Fingerprint string
	SetupS      float64
	HeapMB      float64
	Layers      map[string]float64 // set-up steps (trace mode)
	Counters    map[string]float64 // work counters (trace mode)
	Recall      float64
	Calls       int // calls attempted, over the counter pass and every phase
	Failed      int
	Phases      map[string]phaseData
	Overlapping []time.Duration // ingest reads that overlapped an Add
	Reads       int
	LenSkew     float64
	Trace       traceData // traced search phase (trace mode)
	Mallocs     uint64    // over the untraced search phase (trace mode)
	AllocBytes  uint64
	NumGC       uint32
}

// phaseData is one phase's call latencies, calibrated and as observed.
type phaseData struct {
	Cal, Raw    []time.Duration
	Items       int // queries or vectors per call
	ProbeMedian time.Duration
}

func toPhase(s *sample) phaseData {
	return phaseData{Cal: s.calibrated(false), Raw: s.lat, Items: s.items, ProbeMedian: s.medianProbe()}
}

// spawn runs one child process with the run's own command line and
// decodes its part.
func spawn(o options, i int) (part, error) {
	cmd := exec.Command(os.Args[0], append([]string{"--child"}, o.args...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return part{}, fmt.Errorf("child %d: %w", i, err)
	}
	var p part
	if err := json.NewDecoder(bytes.NewReader(out)).Decode(&p); err != nil {
		return part{}, fmt.Errorf("child %d: %w", i, err)
	}
	return p, nil
}

// measure sets up once and runs the phases for 1/SetupReps of --seconds.
func measure(o options) part {
	p := part{Phases: map[string]phaseData{}}
	logf("%s seed %d: set up", o.w.Name, o.seed)
	r, err := setupOnce(o.w, o.sz, o.seed)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	ix, in := r.ix, r.in
	p.Fingerprint, p.SetupS, p.HeapMB, p.Layers = ix.ConfigFingerprint(), r.total, r.heapMB, r.layers

	logf("counter pass over %d queries", len(in.queries))
	pass := counterPass(ix, in, o.sz)
	p.Recall, p.Calls, p.Failed = pass.recall, pass.calls, pass.failed
	p.Counters = map[string]float64{}
	counterLayers(p.Counters, pass.metrics, lutEntries(ix))

	budget := time.Duration(readShare * o.seconds / float64(o.sz.SetupReps) * float64(time.Second))
	var phases []*sample
	logf("search phase")
	s := searchPhase(ix, in.queries, o.sz.K, budget, nil)
	phases = append(phases, &s)
	p.Phases["search"] = toPhase(&s)
	if !o.trace {
		logf("batch phase")
		b := batchPhase(ix, in.queries, o.sz, budget)
		phases = append(phases, &b)
		p.Phases["batch"] = toPhase(&b)
	} else {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		u := searchPhase(ix, in.queries, o.sz.K, budget, nil)
		runtime.ReadMemStats(&after)
		p.Mallocs, p.AllocBytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		p.NumGC = after.NumGC - before.NumGC
		phases = append(phases, &u)
		p.Phases["untraced"] = toPhase(&u)

		logf("traced search phase")
		tc := newTraceCollector(ix.EnableTracing(traceConfig()))
		t := searchPhase(ix, in.queries, o.sz.K, budget, tc)
		ix.DisableTracing()
		phases = append(phases, &t)
		p.Phases["traced"] = toPhase(&t)
		p.Trace = tc.data()
	}
	logf("ingest phase")
	g := ingestPhase(ix, in, o.sz)
	phases = append(phases, &g.add)
	p.Phases["add"] = toPhase(&g.add)
	p.Overlapping, p.Reads, p.LenSkew = g.overlapping, g.reads, g.lenSkew
	p.Calls += g.reads
	p.Failed += g.readFailed
	for _, s := range phases {
		p.Calls += s.calls
		p.Failed += s.failed
	}
	return p
}

// pooled is one phase's calls pooled over the run's parts.
type pooled struct {
	cal, raw []time.Duration
	items    int
	probes   []float64 // the parts' median probe times, ns
}

func pool(parts []part, name string) *pooled {
	var p pooled
	for _, pt := range parts {
		d := pt.Phases[name]
		p.cal = append(p.cal, d.Cal...)
		p.raw = append(p.raw, d.Raw...)
		p.items = d.Items
		p.probes = append(p.probes, float64(d.ProbeMedian))
	}
	return &p
}

func (p *pooled) lat(raw bool) []time.Duration {
	if raw {
		return p.raw
	}
	return p.cal
}

// rate is items per second over the calls' latencies (observed ones when
// raw is set, else calibrated).
func (p *pooled) rate(raw bool) float64 {
	var sum time.Duration
	for _, d := range p.lat(raw) {
		sum += d
	}
	return float64(len(p.raw)*p.items) / sum.Seconds()
}

func (p *pooled) quantile(q float64, raw bool) time.Duration { return quantile(p.lat(raw), q) }

// run measures the workload in SetupReps parts, each from start, one after
// the other, and assembles the result.
func run(o options, measurePart func(options, int) (part, error)) (provenance, result, error) {
	prov := provenance{
		Workload: o.w, Size: o.sz, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		RecallFloor: o.recallFloor,
		NumCPU:      runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Platform: runtime.GOOS + "/" + runtime.GOARCH,
	}
	parts := make([]part, o.sz.SetupReps)
	for i := range parts {
		p, err := measurePart(o, i)
		if err != nil {
			return prov, result{}, err
		}
		parts[i] = p
	}
	prov.Fingerprint = parts[0].Fingerprint
	res := result{Metrics: map[string]metric{}, recall: 1}
	median := func(f func(part) float64) float64 {
		v := make([]float64, len(parts))
		for i, p := range parts {
			v[i] = f(p)
		}
		return medianFloat(v)
	}
	var recall float64
	for _, p := range parts {
		res.Attempted += p.Calls
		res.Failed += p.Failed
		recall += p.Recall / float64(len(parts))
		res.recall = min(res.recall, p.Recall)
	}
	res.Correct = res.Failed == 0 && res.recall >= o.recallFloor

	m := map[string]float64{}
	search, add := pool(parts, "search"), pool(parts, "add")
	prov.ProbeMedianNs = map[string]int64{"search": int64(medianFloat(search.probes)), "add": int64(medianFloat(add.probes))}
	prov.Samples = map[string]int{"search": len(search.raw), "add": len(add.raw)}
	if !o.trace {
		batch := pool(parts, "batch")
		prov.ProbeMedianNs["batch"] = int64(medianFloat(batch.probes))
		prov.Samples["batch"] = len(batch.raw)
		prov.Raw = map[string]float64{}
		timings(prov.Raw, search, batch, add, true)
		timings(m, search, batch, add, false)
		m["setup_s"] = median(func(p part) float64 { return p.SetupS })
		m["heap_mb"] = median(func(p part) float64 { return p.HeapMB })
		m["recall_at_100"] = recall
	} else {
		for _, name := range layerNames() {
			m[name] = 0
		}
		for name := range parts[0].Layers {
			m[name] = median(func(p part) float64 { return p.Layers[name] })
		}
		for name, v := range parts[0].Counters {
			m[name] = v
		}
		var mallocs, bytes uint64
		var gcs uint32
		var tr traceData
		for _, p := range parts {
			mallocs, bytes, gcs = mallocs+p.Mallocs, bytes+p.AllocBytes, gcs+p.NumGC
			tr.merge(p.Trace)
		}
		untraced, traced := pool(parts, "untraced"), pool(parts, "traced")
		q := float64(len(untraced.raw))
		m["vaq.allocs_per_q"] = float64(mallocs) / q
		m["vaq.bytes_per_q"] = float64(bytes) / q
		m["runtime.gc_per_1k_q"] = float64(gcs) * 1000 / q
		queryLayers(m, tr)
		m["trace.overhead_frac"] = 1 - traced.rate(false)/untraced.rate(false)

		var overlapping []time.Duration
		reads := 0
		m["shard.len_skew"] = 1
		for _, p := range parts {
			overlapping = append(overlapping, p.Overlapping...)
			reads += p.Reads
			m["shard.len_skew"] = max(m["shard.len_skew"], p.LenSkew)
		}
		m["shard.search_overlap_add_frac"] = float64(len(overlapping)) / float64(max(reads, 1))
		if len(overlapping) > 0 {
			m["shard.search_overlap_p50_us"] = us(quantile(overlapping, 0.50))
		}
	}
	for name, v := range m {
		res.Metrics[name] = metric{v, units[name]}
	}
	return prov, res, nil
}

// timings sets the end-to-end timings of the three phases in m,
// calibrated, or as observed when raw is set.
func timings(m map[string]float64, s, b, add *pooled, raw bool) {
	m["search_qps"] = s.rate(raw)
	m["search_p50_us"] = us(s.quantile(0.50, raw))
	m["search_p99_us"] = us(s.quantile(0.99, raw))
	m["batch_qps"] = b.rate(raw)
	m["batch_p50_ms"] = ms(b.quantile(0.50, raw))
	m["batch_p95_ms"] = ms(b.quantile(0.95, raw))
	m["add_vps"] = add.rate(raw)
	m["add_p50_ms"] = ms(add.quantile(0.50, raw))
	m["add_p95_ms"] = ms(add.quantile(0.95, raw))
}
