package vaq

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// TestNonFiniteInputRejected drives every query and Add entry point of
// both index types with NaN and ±Inf coordinates: each call fails with
// ErrNonFinite, counts once in the error counter, and leaves the index
// unchanged and serving.
func TestNonFiniteInputRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	data := genData(rng, 600, 16)
	cfg := Config{NumSubspaces: 4, Budget: 24, Seed: 21}
	ix, err := Build(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 2
	sx, err := BuildSharded(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		name    string
		call    func(bad []float32) error
		errs    func() uint64
		length  func() int
		healthy func() error
	}
	batch := func(search func([][]float32, int, SearchOptions, int) ([][]Result, error)) func([]float32) error {
		return func(bad []float32) error {
			res, err := search([][]float32{data[0], bad}, 5, SearchOptions{}, 2)
			if err == nil {
				return nil
			}
			if len(res) != 2 || len(res[0]) != 5 || res[1] != nil {
				t.Fatalf("batch kept %d slots (%d, %v), want the good query answered and the bad one nil", len(res), len(res[0]), res[1])
			}
			return err
		}
	}
	ixErrs := func() uint64 { return ix.Metrics().Errors }
	sxErrs := func() uint64 { return sx.Metrics().Errors }
	ixOK := func() error { _, err := ix.Search(data[1], 5); return err }
	sxOK := func() error { _, err := sx.Search(data[1], 5); return err }
	entries := []entry{
		{"Index.Search", func(b []float32) error { _, err := ix.Search(b, 5); return err }, ixErrs, ix.Len, ixOK},
		{"Index.SearchWith", func(b []float32) error {
			_, err := ix.SearchWith(b, 5, SearchOptions{Mode: ModeHeap})
			return err
		}, ixErrs, ix.Len, ixOK},
		{"Index.SearchBatch", batch(ix.SearchBatch), ixErrs, ix.Len, ixOK},
		{"Index.Add", func(b []float32) error { _, err := ix.Add([][]float32{data[2], b}); return err }, ixErrs, ix.Len, ixOK},
		{"ShardedIndex.Search", func(b []float32) error { _, err := sx.Search(b, 5); return err }, sxErrs, sx.Len, sxOK},
		{"ShardedIndex.SearchWith", func(b []float32) error {
			_, err := sx.SearchWith(b, 5, SearchOptions{VisitFrac: 1})
			return err
		}, sxErrs, sx.Len, sxOK},
		{"ShardedIndex.SearchBatch", batch(sx.SearchBatch), sxErrs, sx.Len, sxOK},
		{"ShardedIndex.Add", func(b []float32) error { _, err := sx.Add([][]float32{data[2], b}); return err }, sxErrs, sx.Len, sxOK},
	}
	for _, e := range entries {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			bad := append([]float32(nil), data[3]...)
			bad[7] = float32(v)
			before, n := e.errs(), e.length()
			err := e.call(bad)
			if !errors.Is(err, ErrNonFinite) {
				t.Fatalf("%s with %v: err = %v, want ErrNonFinite", e.name, v, err)
			}
			if got := e.errs() - before; got != 1 {
				t.Fatalf("%s with %v: error counter moved by %d, want 1", e.name, v, got)
			}
			if e.length() != n {
				t.Fatalf("%s with %v: Len moved from %d to %d", e.name, v, n, e.length())
			}
			if err := e.healthy(); err != nil {
				t.Fatalf("%s with %v: index no longer serves: %v", e.name, v, err)
			}
		}
	}
}

// TestPooledSearchConcurrency runs Search, SearchBatch, Add and tracer
// toggles against one index of each type at once; run it under -race.
func TestPooledSearchConcurrency(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	data := genData(rng, 700, 16)
	extra := genData(rng, 64, 16)
	cfg := Config{NumSubspaces: 4, Budget: 24, Seed: 22}
	ix, err := Build(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 2
	sx, err := BuildSharded(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	type index interface {
		Search([]float32, int) ([]Result, error)
		SearchBatch([][]float32, int, SearchOptions, int) ([][]Result, error)
		Add([][]float32) (int, error)
		EnableTracing(TraceConfig) *Tracer
		DisableTracing()
	}
	for _, x := range []index{ix, sx} {
		var wg sync.WaitGroup
		fail := make(chan error, 8)
		run := func(f func(i int) error) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 16; i++ {
					if err := f(i); err != nil {
						fail <- err
						return
					}
				}
			}()
		}
		run(func(i int) error { _, err := x.Search(data[i], 5); return err })
		run(func(i int) error { _, err := x.SearchBatch(data[i:i+4], 5, SearchOptions{}, 2); return err })
		run(func(i int) error { _, err := x.Add(extra[i*4 : i*4+4]); return err })
		run(func(i int) error {
			if i%2 == 0 {
				x.EnableTracing(TraceConfig{})
			} else {
				x.DisableTracing()
			}
			return nil
		})
		wg.Wait()
		close(fail)
		for err := range fail {
			t.Fatal(err)
		}
	}
}

// TestWarmSearchAllocations pins the pooled query path: a warmed
// Index.Search allocates less than the 17 objects a fresh Searcher per
// call used to, and nothing it allocates scales with the lookup tables
// (Σ2^bits entries), which the pool keeps between calls.
func TestWarmSearchAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	data := genData(rng, 3000, 32)
	ix, err := Build(data, Config{NumSubspaces: 8, Budget: 64, MaxBits: 12, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	entries := 0
	for _, b := range ix.Stats().BitsPerSubspace {
		entries += 1 << b
	}
	q := data[5]
	search := func() {
		if _, err := ix.Search(q, 10); err != nil {
			t.Fatal(err)
		}
	}
	search()
	allocs := testing.AllocsPerRun(200, search)
	if allocs >= 17 {
		t.Fatalf("warm Search makes %.1f allocations, want fewer than 17", allocs)
	}
	// The median over single calls: a garbage collection may empty the
	// pool (and the race detector drops pooled items at random), so an
	// occasional call rebuilds a Searcher; the typical call must not.
	var perCall [51]uint64
	var before, after runtime.MemStats
	for i := range perCall {
		runtime.ReadMemStats(&before)
		search()
		runtime.ReadMemStats(&after)
		perCall[i] = after.TotalAlloc - before.TotalAlloc
	}
	slices.Sort(perCall[:])
	median := perCall[len(perCall)/2]
	t.Logf("warm Search: %.1f allocations, median %d bytes per call; LUT %d entries", allocs, median, entries)
	if lutBytes := uint64(4 * entries); median >= lutBytes/4 {
		t.Fatalf("warm Search allocates %d bytes per call, comparable to the %d-byte LUT", median, lutBytes)
	}
}
