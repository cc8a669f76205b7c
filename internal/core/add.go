package core

import (
	"fmt"
	"log/slog"
	"math"
	"sort"
	"time"

	"vaq/internal/vec"
)

// Add encodes new raw vectors with the already-trained model and
// dictionaries and threads them into the triangle-inequality skip
// structure, keeping each cluster's distance ordering intact. The new
// vectors receive ids Len(), Len()+1, ... in input order; the first
// assigned id is returned.
//
// Dictionaries and the PCA rotation are NOT retrained — the paper's
// encoding model is train-once — so heavy distribution drift degrades
// accuracy the same way it would for any PQ system.
func (ix *Index) Add(vectors *vec.Matrix) (firstID int, err error) {
	if vectors == nil || vectors.Rows == 0 {
		return ix.n, nil
	}
	start := time.Now()
	if vectors.Cols != ix.queryDim {
		return 0, fmt.Errorf("core: Add dimension %d, index dimension %d", vectors.Cols, ix.queryDim)
	}
	if err := CheckFinite("core: Add", vectors.Data, vectors.Cols); err != nil {
		ix.metrics.RecordError()
		return 0, err
	}
	z, err := ix.model.Project(vectors)
	if err != nil {
		return 0, err
	}
	// Mutation starts here: exclude queries, Diagnose and WriteTo (they
	// hold read locks). The projection above only reads the immutable
	// model, so it stays outside the critical section.
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.retained != nil {
		// Keep the shadow-exact recall sampler's ground truth complete: the
		// retained matrix must cover every id the approximate scan can
		// return. Append reallocates, so searchers holding the old matrix
		// stay valid.
		grownZ := &vec.Matrix{Rows: ix.retained.Rows + z.Rows, Cols: ix.retained.Cols}
		grownZ.Data = make([]float32, 0, grownZ.Rows*grownZ.Cols)
		grownZ.Data = append(grownZ.Data, ix.retained.Data...)
		grownZ.Data = append(grownZ.Data, z.Data...)
		ix.retained = grownZ
	}
	firstID = ix.n
	m := ix.cb.Sub.M()
	code := make([]uint16, m)
	prefixBuf := make([]float32, ix.ti.prefixDim)
	// Per-subspace squared reconstruction error of this batch, folded
	// into the drift EWMA below (only when Build left a baseline).
	var batchSqErr []float64
	if ix.baselineMSE != nil {
		batchSqErr = make([]float64, m)
	}
	// Grow code storage.
	grown := make([]uint16, (ix.n+vectors.Rows)*m)
	copy(grown, ix.codes.Data)
	ix.codes.Data = grown
	for i := 0; i < vectors.Rows; i++ {
		id := ix.n + i
		ix.cb.EncodeVec(z.Row(i), code)
		copy(ix.codes.Data[id*m:(id+1)*m], code)
		if batchSqErr != nil {
			zi := z.Row(i)
			for s := 0; s < m; s++ {
				zs := ix.cb.Sub.Of(zi, s)
				batchSqErr[s] += float64(vec.SquaredL2(zs, ix.cb.Books[s].Row(int(code[s]))))
			}
		}
		// Assign to the nearest TI centroid in prefix space.
		decodePrefix(ix.cb, code, ix.ti.prefixSubspaces, prefixBuf)
		best, bestD := vec.Nearest(prefixBuf, ix.ti.centroids)
		entry := tiEntry{id: id, dist: float32(math.Sqrt(float64(bestD)))}
		members := ix.ti.clusters[best]
		pos := sort.Search(len(members), func(j int) bool {
			return members[j].dist >= entry.dist
		})
		members = append(members, tiEntry{})
		copy(members[pos+1:], members[pos:])
		members[pos] = entry
		ix.ti.clusters[best] = members
	}
	ix.codes.N += vectors.Rows
	ix.n += vectors.Rows
	// The blocked scan copy is derived from codes+clusters, so it must be
	// rebuilt wholesale: insertions shift every later member of a cluster,
	// which reshuffles block lanes. O(n*m) per Add call — Add is a
	// maintenance path, not a hot path, so simplicity wins over an
	// incremental rebuild.
	if ix.blocked != nil {
		ix.blocked = buildBlockedStore(ix.cb, ix.codes, ix.ti)
	}
	if ix.fast != nil {
		// The coarse scan dictionaries depend only on the (immutable)
		// codebooks and seed, so the rebuild donates them via prev and only
		// the block data is re-derived.
		ix.fast = buildFastStore(ix.cb, ix.codes, ix.ti, ix.cfg.Seed, ix.fast)
	}
	if batchSqErr != nil {
		ix.foldDriftLocked(batchSqErr, vectors.Rows)
	}
	if ix.cfg.Logger != nil {
		ix.cfg.Logger.Info("vaq.add",
			slog.Int("added", vectors.Rows),
			slog.Int("first_id", firstID),
			slog.Int("n", ix.n),
			slog.Duration("total", time.Since(start)))
	}
	return firstID, nil
}
