package vec

import (
	"math"
	"math/rand"
	"testing"
)

// nearestLoop is the reference Nearest: a SquaredL2 loop with a strict <
// update, so the first minimum wins ties.
func nearestLoop(q []float32, rows *Matrix) (int, float32) {
	best, bestD := 0, SquaredL2(q, rows.Row(0))
	for c := 1; c < rows.Rows; c++ {
		if d := SquaredL2(q, rows.Row(c)); d < bestD {
			best, bestD = c, d
		}
	}
	return best, bestD
}

// randRows returns n random rows of dimension dim with a few exact
// duplicates planted after the first occurrence, so several rows tie at
// every distance (including the minimum when the duplicate is nearest).
func randRows(rng *rand.Rand, n, dim int) *Matrix {
	m := NewMatrix(n, dim)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	for i := 0; i < n/4; i++ {
		src := rng.Intn(n)
		dst := rng.Intn(n)
		copy(m.Row(dst), m.Row(src))
	}
	return m
}

func TestNearestMatchesSquaredL2Loop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for dim := 1; dim <= 17; dim++ {
		// Row counts straddle the internal batch size.
		for _, n := range []int{1, 2, 5, nearestChunk - 1, nearestChunk, nearestChunk + 1, 3*nearestChunk + 7} {
			rows := randRows(rng, n, dim)
			for trial := 0; trial < 20; trial++ {
				q := make([]float32, dim)
				if trial%3 == 0 {
					// A query equal to a row that also has duplicates:
					// the minimum (0) ties, the first copy must win.
					copy(q, rows.Row(rng.Intn(n)))
				} else {
					for i := range q {
						q[i] = float32(rng.NormFloat64())
					}
				}
				wantI, wantD := nearestLoop(q, rows)
				gotI, gotD := Nearest(q, rows)
				if gotI != wantI || math.Float32bits(gotD) != math.Float32bits(wantD) {
					t.Fatalf("dim %d n %d: Nearest = (%d, %v), want (%d, %v)", dim, n, gotI, gotD, wantI, wantD)
				}
			}
		}
	}
}

func TestNearestTiesAcrossBatches(t *testing.T) {
	// Every row identical: the answer is row 0 however the scan is batched.
	for _, dim := range []int{4, 6, 8, 9} {
		rows := NewMatrix(3*nearestChunk+5, dim)
		for i := range rows.Data {
			rows.Data[i] = 1
		}
		if i, _ := Nearest(make([]float32, dim), rows); i != 0 {
			t.Fatalf("dim %d: all-equal rows returned %d, want 0", dim, i)
		}
		// A planted minimum in a later batch, duplicated further on.
		copy(rows.Row(nearestChunk+3), make([]float32, dim))
		copy(rows.Row(2*nearestChunk+1), make([]float32, dim))
		if i, d := Nearest(make([]float32, dim), rows); i != nearestChunk+3 || d != 0 {
			t.Fatalf("dim %d: got (%d, %v), want (%d, 0)", dim, i, d, nearestChunk+3)
		}
	}
}

func TestDistancesMatchSquaredL2(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for dim := 1; dim <= 17; dim++ {
		rows := randRows(rng, 300, dim)
		q := make([]float32, dim)
		for i := range q {
			q[i] = float32(rng.NormFloat64())
		}
		full := make([]float32, rows.Rows)
		Distances(q, rows, full)
		at8 := make([]uint8, 50)
		at16 := make([]uint16, 50)
		for i := range at8 {
			at8[i] = uint8(rng.Intn(256))
			at16[i] = uint16(rng.Intn(rows.Rows))
		}
		nan := float32(math.NaN())
		sparse8 := make([]float32, rows.Rows)
		sparse16 := make([]float32, rows.Rows)
		for i := range sparse8 {
			sparse8[i], sparse16[i] = nan, nan
		}
		DistancesAt(q, rows, at8, sparse8)
		DistancesAt(q, rows, at16, sparse16)
		listed8 := map[int]bool{}
		listed16 := map[int]bool{}
		for i := range at8 {
			listed8[int(at8[i])] = true
			listed16[int(at16[i])] = true
		}
		for c := 0; c < rows.Rows; c++ {
			want := math.Float32bits(SquaredL2(q, rows.Row(c)))
			if math.Float32bits(full[c]) != want {
				t.Fatalf("dim %d row %d: Distances = %v, want %v", dim, c, full[c], SquaredL2(q, rows.Row(c)))
			}
			for _, tc := range []struct {
				listed map[int]bool
				out    []float32
			}{{listed8, sparse8}, {listed16, sparse16}} {
				got := tc.out[c]
				if tc.listed[c] && math.Float32bits(got) != want {
					t.Fatalf("dim %d row %d: DistancesAt = %v, want %v", dim, c, got, SquaredL2(q, rows.Row(c)))
				}
				if !tc.listed[c] && !math.IsNaN(float64(got)) {
					t.Fatalf("dim %d row %d: DistancesAt wrote an unlisted entry", dim, c)
				}
			}
		}
	}
}

func BenchmarkNearest(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for _, dim := range []int{4, 6, 8} {
		rows := randRows(rng, 1024, dim)
		q := rows.Row(17)
		b.Run("dim"+string(rune('0'+dim)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Nearest(q, rows)
			}
		})
		b.Run("loop-dim"+string(rune('0'+dim)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				nearestLoop(q, rows)
			}
		})
	}
}
