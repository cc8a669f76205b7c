package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"vaq/internal/trace"
	"vaq/internal/vec"
)

// lutAnswer is one query's observable outcome: results plus a deep copy of
// the stats (the attribution slices alias Searcher scratch).
type lutAnswer struct {
	res   []vec.Neighbor
	stats SearchStats
}

func copyStats(st SearchStats) SearchStats {
	st.AbandonDepths = append([]uint32(nil), st.AbandonDepths...)
	st.TISkipsByRank = append([]uint32(nil), st.TISkipsByRank...)
	return st
}

// poisonedSearch runs one query on a pooled Searcher whose whole LUT was
// set to NaN first, so any entry the scan reads without the visited fill
// having computed it shows up as a NaN distance or a changed decision. It
// also reports how many entries stayed NaN (the entries the fill skipped).
func poisonedSearch(t *testing.T, ix *Index, q []float32, k int, opt SearchOptions) (lutAnswer, int) {
	t.Helper()
	s := ix.AcquireSearcher()
	defer ix.ReleaseSearcher(s)
	if s.lut == nil {
		s.lut = ix.cb.NewLUT()
	}
	nan := float32(math.NaN())
	for i := range s.lut.Dist {
		s.lut.Dist[i] = nan
	}
	res, err := s.SearchProjected(q, k, opt)
	if err != nil {
		t.Fatal(err)
	}
	stale := 0
	for _, d := range s.lut.Dist {
		if d != d {
			stale++
		}
	}
	return lutAnswer{res, copyStats(s.LastStats())}, stale
}

// fullSearch is the reference: the same query with the whole LUT filled.
func fullSearch(t *testing.T, ix *Index, q []float32, k int, opt SearchOptions) lutAnswer {
	t.Helper()
	s := ix.NewSearcher()
	s.fullLUT = true
	res, err := s.SearchProjected(q, k, opt)
	if err != nil {
		t.Fatal(err)
	}
	return lutAnswer{res, copyStats(s.LastStats())}
}

// TestVisitedLUTFillMatchesFullFill is the differential gate of the
// visited-cluster LUT fill: with every table entry poisoned to NaN before
// each query, results and SearchStats must equal the whole-table fill bit
// for bit — on both scan layouts, unsharded and as two shards encoded
// against one training (the sharded build path, with the first shard's
// k-th distance fed to the second as the scatter does), across visit
// fractions that leave most tables sparse, some, and none, and again
// after an Add reshapes the clusters.
func TestVisitedLUTFillMatchesFullFill(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x := skewedData(rng, 3000, 32, 1.2)
	extra := skewedData(rng, 300, 32, 1.2)
	queries := layoutQuerySet(rng, x, 12)
	// MaxBits 11 gives 2048-entry tables, larger than what a partial visit
	// reaches, next to small ones that are filled whole; the bit spread
	// also mixes narrow (uint8) and wide (uint16) blocked groups.
	cfg := Config{NumSubspaces: 8, Budget: 64, MaxBits: 11, Seed: 12, TIClusters: 48}
	const k = 10
	for _, layout := range []ScanLayout{LayoutBlocked, LayoutRowMajor} {
		cfg.ScanLayout = layout
		tr, err := Train(x, cfg)
		if err != nil {
			t.Fatal(err)
		}
		single, err := tr.EncodeIndex(x)
		if err != nil {
			t.Fatal(err)
		}
		halves := [2]*vec.Matrix{vec.NewMatrix(0, x.Cols), vec.NewMatrix(0, x.Cols)}
		for i := 0; i < x.Rows; i++ {
			h := halves[i%2]
			h.Data = append(h.Data, x.Row(i)...)
			h.Rows++
		}
		var shards []*Index
		for _, h := range halves {
			ix, err := tr.EncodeIndex(h)
			if err != nil {
				t.Fatal(err)
			}
			shards = append(shards, ix)
		}
		sparseSeen := false
		for _, added := range []bool{false, true} {
			if added {
				if _, err := single.Add(extra); err != nil {
					t.Fatal(err)
				}
				if _, err := shards[1].Add(extra); err != nil {
					t.Fatal(err)
				}
			}
			for _, visit := range []float64{0, 0.05, 1.0} {
				opt := SearchOptions{VisitFrac: visit}
				for qi := 0; qi < queries.Rows; qi++ {
					qz, err := single.ProjectQuery(queries.Row(qi))
					if err != nil {
						t.Fatal(err)
					}
					for _, group := range [][]*Index{{single}, shards} {
						o := opt
						for si, ix := range group {
							got, stale := poisonedSearch(t, ix, qz, k, o)
							want := fullSearch(t, ix, qz, k, o)
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%v S=%d shard %d visit %v added %v query %d:\nvisited fill %+v\nfull fill    %+v",
									layout, len(group), si, visit, added, qi, got, want)
							}
							if stale > 0 {
								sparseSeen = true
							}
							if len(want.res) == k {
								o.InitialThreshold = want.res[k-1].Dist
							}
						}
					}
				}
			}
		}
		if !sparseSeen {
			t.Fatalf("%v: no query left a table entry unfilled; the visited fill was never exercised", layout)
		}
	}
}

// TestPooledSearcherFollowsTracer checks that pooled Searchers pick up the
// index tracer at checkout: one pooled before EnableTracing records
// traces afterwards, and none records after DisableTracing.
func TestPooledSearcherFollowsTracer(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := skewedData(rng, 800, 16, 1.2)
	ix, err := Build(x, x, Config{NumSubspaces: 4, Budget: 24, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	q := x.Row(3)
	s := ix.AcquireSearcher()
	if _, err := s.Search(q, 5, SearchOptions{}); err != nil {
		t.Fatal(err)
	}
	ix.ReleaseSearcher(s)

	tr := ix.EnableTracing(trace.Config{})
	s = ix.AcquireSearcher()
	if !s.rec.Active() {
		t.Fatal("pooled searcher has no recorder after EnableTracing")
	}
	ix.ReleaseSearcher(s)
	for i := 0; i < 3; i++ {
		if _, err := ix.Search(q, 5); err != nil {
			t.Fatal(err)
		}
	}
	if got := tr.Count(); got != 3 {
		t.Fatalf("traced %d queries after EnableTracing, want 3", got)
	}

	ix.DisableTracing()
	for i := 0; i < 3; i++ {
		if _, err := ix.Search(q, 5); err != nil {
			t.Fatal(err)
		}
	}
	if got := tr.Count(); got != 3 {
		t.Fatalf("traced %d queries after DisableTracing, want still 3", got)
	}
	s = ix.AcquireSearcher()
	if s.rec.Active() {
		t.Fatal("pooled searcher still records after DisableTracing")
	}
	ix.ReleaseSearcher(s)
}
