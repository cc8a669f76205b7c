package main

import (
	"math"
	"runtime"
	"sort"

	"vaq"
)

// wellFormed reports whether res is a valid answer for a k-NN query over
// an index of n vectors: at most k results, ids in [0, n), distances
// finite and non-decreasing.
func wellFormed(res []vaq.Result, k, n int) bool {
	if len(res) > k {
		return false
	}
	for i, r := range res {
		if r.ID < 0 || r.ID >= n {
			return false
		}
		d := float64(r.Dist)
		if math.IsNaN(d) || math.IsInf(d, 0) {
			return false
		}
		if i > 0 && r.Dist < res[i-1].Dist {
			return false
		}
	}
	return true
}

// groundTruth returns, for each query in qs, the ids of its k nearest base
// vectors by exact squared Euclidean distance.
func groundTruth(base, qs [][]float32, k int) [][]int {
	type cand struct {
		id int
		d  float64
	}
	out := make([][]int, len(qs))
	top := make([]cand, 0, k+1) // ascending by distance
	for qi, q := range qs {
		top = top[:0]
		for i, b := range base {
			var s float64
			for j, x := range b {
				diff := float64(x - q[j])
				s += diff * diff
			}
			if len(top) == k && s >= top[k-1].d {
				continue
			}
			pos := sort.Search(len(top), func(j int) bool { return top[j].d > s })
			top = append(top, cand{})
			copy(top[pos+1:], top[pos:])
			top[pos] = cand{i, s}
			if len(top) > k {
				top = top[:k]
			}
		}
		ids := make([]int, len(top))
		for i, c := range top {
			ids[i] = c.id
		}
		out[qi] = ids
	}
	return out
}

// overlap is |got ∩ want| / len(want).
func overlap(got []vaq.Result, want []int) float64 {
	set := make(map[int]struct{}, len(want))
	for _, id := range want {
		set[id] = struct{}{}
	}
	hit := 0
	for _, r := range got {
		if _, ok := set[r.ID]; ok {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}

// gtStride spaces the ground-truth subset evenly over the query set, whose
// noise level grows with the query index.
func gtStride(sz size) int {
	if s := sz.Queries / sz.GTQueries; s > 1 {
		return s
	}
	return 1
}

// passResult is the outcome of the counter pass.
type passResult struct {
	recall  float64             // mean recall@k over the ground-truth subset
	calls   int                 // Search calls made
	failed  int                 // calls that errored or returned a malformed answer
	metrics vaq.MetricsSnapshot // registry delta over the pass
}

// counterPass runs every query once through Search on ix, checks each
// answer, measures recall on the ground-truth subset and takes the
// registry's delta. It runs with GOMAXPROCS=1 so a sharded index scans its
// shards in order and the cross-shard bound feedback — and with it every
// work counter — repeats exactly for a given seed.
func counterPass(ix target, in *inputs, sz size) passResult {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	stride := gtStride(sz)
	gtQs := make([][]float32, 0, sz.GTQueries)
	for i := 0; i < sz.GTQueries && i*stride < len(in.queries); i++ {
		gtQs = append(gtQs, in.queries[i*stride])
	}
	gt := groundTruth(in.base, gtQs, sz.K)

	var r passResult
	var recallSum float64
	before := ix.Metrics()
	n := ix.Len()
	for qi, q := range in.queries {
		r.calls++
		res, err := ix.Search(q, sz.K)
		if err != nil || !wellFormed(res, sz.K, n) {
			r.failed++
			continue
		}
		if qi%stride == 0 && qi/stride < len(gt) {
			recallSum += overlap(res, gt[qi/stride])
		}
	}
	after := ix.Metrics()
	r.recall = recallSum / float64(len(gt))
	r.metrics = vaq.MetricsSnapshot{
		Queries:          after.Queries - before.Queries,
		ClustersVisited:  after.ClustersVisited - before.ClustersVisited,
		CodesConsidered:  after.CodesConsidered - before.CodesConsidered,
		CodesSkippedTI:   after.CodesSkippedTI - before.CodesSkippedTI,
		CodesAbandonedEA: after.CodesAbandonedEA - before.CodesAbandonedEA,
		Lookups:          after.Lookups - before.Lookups,
	}
	return r
}
