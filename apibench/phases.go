package main

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vaq"
)

// A phase times every call it makes and interleaves speed probes with the
// calls (see calibrate.go). The run's figures are taken over all the calls
// of a phase in all its parts, pooled (see run.go): the rate is the items
// of all calls over the sum of their latencies, and a percentile is the
// nearest-rank percentile of all call latencies. Each percentile has at
// least ten calls beyond it.
const (
	minSearchCalls = 1000 // Search calls per part at least: p99
	minBatchCalls  = 200  // SearchBatch calls per part at least: p95
	searchProbe    = 10   // Search calls per probe; SearchBatch and Add calls probe before every call
)

// sample is the outcome of a phase.
type sample struct {
	lat    []time.Duration   // every call's latency, as observed
	win    []int             // the calibration window of each call
	probes [][]time.Duration // per window, its probe times
	items  int               // queries answered, or vectors added, per call
	calls  int               // operations attempted (queries, or Add calls)
	failed int               // operations that errored or returned a malformed answer
}

// probe takes a speed probe into the current window, opening a new window
// when the current one is full.
func (s *sample) probe() {
	if n := len(s.probes); n == 0 || len(s.probes[n-1]) == windowProbes {
		s.probes = append(s.probes, make([]time.Duration, 0, windowProbes))
	}
	w := &s.probes[len(s.probes)-1]
	*w = append(*w, probe())
}

// time records one call that took d.
func (s *sample) time(d time.Duration) {
	s.lat = append(s.lat, d)
	s.win = append(s.win, len(s.probes)-1)
}

func quantile(v []time.Duration, q float64) time.Duration {
	s := append([]time.Duration(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.999999) - 1
	return s[max(i, 0)]
}

// searchPhase calls Search from one client, cycling through the queries,
// until budget has passed and at least minSearchCalls calls were made. With tc
// set it drains the tracer as it goes, between the timed calls.
//
// It runs with GOMAXPROCS=1: one client on one core. A sharded index then
// scans its shards in turn, each with the k-th distance the shards before
// it found, so a query does the same work on every run; with its shards
// scanned in parallel the work depends on which shard the scheduler starts
// first. The probes then also time the core the calls run on.
func searchPhase(ix target, qs [][]float32, k int, budget time.Duration, tc *traceCollector) sample {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	s := sample{items: 1}
	n := ix.Len()
	start := time.Now()
	for i := 0; i < minSearchCalls || time.Since(start) < budget; i++ {
		if i%searchProbe == 0 {
			s.probe()
		}
		t := time.Now()
		res, err := ix.Search(qs[i%len(qs)], k)
		d := time.Since(t)
		s.time(d)
		s.calls++
		if err != nil || !wellFormed(res, k, n) {
			s.failed++
		}
		if tc != nil {
			tc.callTime += d
			if tc.due() {
				tc.drain()
			}
		}
	}
	if tc != nil {
		tc.drain()
	}
	return s
}

// batchPhase calls SearchBatch from one client on consecutive windows of
// the query set until budget has passed and at least minBatchCalls calls
// were made. Latencies are per batch; calls count queries.
func batchPhase(ix target, qs [][]float32, sz size, budget time.Duration) sample {
	nb := max(len(qs)/sz.Batch, 1)
	s := sample{items: sz.Batch}
	n := ix.Len()
	start := time.Now()
	for i := 0; i < minBatchCalls || time.Since(start) < budget; i++ {
		lo := (i % nb) * sz.Batch
		b := qs[lo : lo+sz.Batch]
		s.probe()
		t := time.Now()
		out, err := ix.SearchBatch(b, sz.K, vaq.SearchOptions{}, sz.BatchWorkers)
		s.time(time.Since(t))
		s.calls += len(b)
		if err != nil || len(out) != len(b) {
			s.failed += len(b)
			continue
		}
		for _, res := range out {
			if !wellFormed(res, sz.K, n) {
				s.failed++
			}
		}
	}
	return s
}

// ingest is the outcome of the ingest phase.
type ingest struct {
	add         sample          // the writer's Add calls; items are vectors
	reads       int             // the reader's Search calls beside the writer
	readFailed  int             // reads that errored or returned a malformed answer
	overlapping []time.Duration // latencies of the reads that overlapped an Add
	lenSkew     float64         // max/min shard size at the end (1 unsharded)
}

type interval struct{ start, end time.Duration }

// ingestPhase makes sz.Adds Add calls of AddBatch vectors from one writer,
// while one reader calls Search on the same index until the writer is
// done, so every run ends at the same index size. The reader holds gate
// around each Search and the writer takes it for its probes, so the probes
// time the machine with no read running.
func ingestPhase(ix target, in *inputs, sz size) ingest {
	var (
		g       = ingest{add: sample{items: sz.AddBatch}, lenSkew: 1}
		done    atomic.Bool
		gate    sync.Mutex
		bound   atomic.Int64 // every id a reader may see is below this
		wg      sync.WaitGroup
		reads   = make([]interval, 0, 1<<14)
		readBad int
	)
	n0 := ix.Len()
	bound.Store(int64(n0))
	origin := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !done.Load(); i++ {
			gate.Lock()
			s := time.Since(origin)
			out, err := ix.Search(in.queries[i%len(in.queries)], sz.K)
			e := time.Since(origin)
			gate.Unlock()
			reads = append(reads, interval{s, e})
			if err != nil || !wellFormed(out, sz.K, int(bound.Load())) {
				readBad++
			}
		}
	}()
	adds := make([]interval, 0, sz.Adds)
	added := 0
	for i := 0; i < sz.Adds; i++ {
		gate.Lock()
		g.add.probe()
		gate.Unlock()
		want := n0 + added
		bound.Store(int64(want + sz.AddBatch))
		s := time.Since(origin)
		first, err := ix.Add(in.extra[i*sz.AddBatch : (i+1)*sz.AddBatch])
		e := time.Since(origin)
		adds = append(adds, interval{s, e})
		g.add.time(e - s)
		g.add.calls++
		if err == nil && first == want {
			added += sz.AddBatch
		} else {
			g.add.failed++
		}
	}
	done.Store(true)
	wg.Wait()
	if ix.Len() != n0+added {
		g.add.failed++
	}
	for _, r := range reads {
		if overlapsAny(r, adds) {
			g.overlapping = append(g.overlapping, r.end-r.start)
		}
	}
	g.reads, g.readFailed = len(reads), readBad
	if sx, ok := ix.(*vaq.ShardedIndex); ok {
		lens := sx.ShardLens()
		lo, hi := lens[0], lens[0]
		for _, l := range lens {
			lo, hi = min(lo, l), max(hi, l)
		}
		g.lenSkew = float64(hi) / float64(max(lo, 1))
	}
	return g
}

// overlapsAny reports whether r intersects any of adds (sorted by start).
func overlapsAny(r interval, adds []interval) bool {
	i := sort.Search(len(adds), func(j int) bool { return adds[j].end > r.start })
	return i < len(adds) && adds[i].start < r.end
}
