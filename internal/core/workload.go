package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"log/slog"
	"time"

	"vaq/internal/diag"
	"vaq/internal/metrics"
	"vaq/internal/observe"
	"vaq/internal/vec"
	"vaq/internal/workload"
)

// fingerprintConfig is the canonical serialization the config fingerprint
// hashes: every build parameter that changes what a query returns. It
// deliberately excludes runtime-only knobs (metrics, tracing, logging,
// recall sampling, profiling) — two indexes differing only in telemetry
// answer identically.
type fingerprintConfig struct {
	Dim               int     `json:"dim"`
	Subspaces         int     `json:"subspaces"`
	Budget            int     `json:"budget"`
	MinBits           int     `json:"min_bits"`
	MaxBits           int     `json:"max_bits"`
	NonUniform        bool    `json:"non_uniform"`
	NoPartialBalance  bool    `json:"no_partial_balance,omitempty"`
	Alloc             int     `json:"alloc"`
	TargetVariance    float64 `json:"target_variance"`
	TIClusters        int     `json:"ti_clusters"`
	TIPrefixSubspaces int     `json:"ti_prefix_subspaces"`
	DefaultVisitFrac  float64 `json:"visit_frac"`
	EACheckEvery      int     `json:"ea_check_every"`
	Seed              int64   `json:"seed"`
	Layout            string  `json:"layout"`
	// Accuracy is "" for exact mode (omitted, so every fingerprint minted
	// before the integer kernel existed is unchanged) and "fast" when the
	// integer kernel answers queries — a different-answers config.
	Accuracy string `json:"accuracy,omitempty"`
}

// ConfigFingerprint is a stable short hash of the search-relevant build
// configuration — the same sha256-over-canonical-JSON, first-8-bytes-hex
// scheme vaqbench stamps into -json summaries. Workload logs carry it so a
// replay can tell "same config rebuild" from "different index".
func (ix *Index) ConfigFingerprint() string {
	fp := fingerprintConfig{
		Dim:               ix.queryDim,
		Subspaces:         ix.cfg.NumSubspaces,
		Budget:            ix.cfg.Budget,
		MinBits:           ix.cfg.MinBits,
		MaxBits:           ix.cfg.MaxBits,
		NonUniform:        ix.cfg.NonUniform,
		NoPartialBalance:  ix.cfg.DisablePartialBalance,
		Alloc:             int(ix.cfg.Alloc),
		TargetVariance:    ix.cfg.TargetVariance,
		TIClusters:        ix.cfg.TIClusters,
		TIPrefixSubspaces: ix.cfg.TIPrefixSubspaces,
		DefaultVisitFrac:  ix.cfg.DefaultVisitFrac,
		EACheckEvery:      ix.cfg.EACheckEvery,
		Seed:              ix.cfg.Seed,
		Layout:            ix.cfg.ScanLayout.String(),
	}
	if ix.cfg.AccuracyMode != AccuracyExact {
		fp.Accuracy = ix.cfg.AccuracyMode.String()
	}
	blob, err := json.Marshal(fp)
	if err != nil {
		return "unknown"
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:8])
}

// bindAttachments binds the runtime observers to this index; slo, when
// set, is the Build-time Config.SLO (loaded indexes pass nil: SLOs are
// runtime-only).
func (ix *Index) bindAttachments(slo *metrics.SLO) {
	ix.Bind(observe.Descriptor{
		Metrics:     ix.metrics,
		Fingerprint: ix.ConfigFingerprint,
		Dim:         ix.queryDim,
		Reports:     func() []*diag.Report { return []*diag.Report{ix.Diagnose()} },
		Logger:      func() *slog.Logger { return ix.cfg.Logger },
		SLO:         slo,
	})
}

// ReplayRunner adapts one reusable Searcher to the workload replay engine.
func (ix *Index) ReplayRunner() workload.RunFunc {
	s := ix.newSearcher()
	return Runner(s.Search, s.SearchProjected)
}

// Runner adapts a query path to the workload replay engine: raw-captured
// queries go through search (projection included), projected captures
// through searchProjected. Both index types replay through it.
func Runner(search, searchProjected func([]float32, int, SearchOptions) ([]vec.Neighbor, error)) workload.RunFunc {
	return func(r *workload.Record) ([]int32, []float32, error) {
		run := search
		if r.Projected {
			run = searchProjected
		}
		res, err := run(r.Query, int(r.K), SearchOptions{
			Mode:      SearchMode(r.Mode),
			VisitFrac: r.VisitFrac,
			Subspaces: int(r.Subspaces),
		})
		if err != nil {
			return nil, nil, err
		}
		ids := make([]int32, len(res))
		dists := make([]float32, len(res))
		for i, nb := range res {
			ids[i] = int32(nb.ID)
			dists[i] = nb.Dist
		}
		return ids, dists, nil
	}
}

// CaptureQuery files one sampled query into c. qz is the projected query
// the search ran; rawQ, the caller's unprojected query (nil when the
// search came in projected), is preferred so a replay can target a
// rebuild with a different PCA rotation. On a sharded index res is the
// merged global result list.
func CaptureQuery(c *workload.Capture, qz, rawQ []float32, k int, opt SearchOptions, res []vec.Neighbor, lat time.Duration, traceSeq uint64) {
	q, projected := rawQ, false
	if q == nil {
		q, projected = qz, true
	}
	r := &workload.Record{
		LatencyNs: lat.Nanoseconds(),
		TraceSeq:  traceSeq,
		K:         int32(k),
		Mode:      int32(opt.Mode),
		VisitFrac: opt.VisitFrac,
		Subspaces: int32(opt.Subspaces),
		Projected: projected,
		Query:     append([]float32(nil), q...),
		IDs:       make([]int32, len(res)),
		Dists:     make([]float32, len(res)),
	}
	for i, nb := range res {
		r.IDs[i] = int32(nb.ID)
		r.Dists[i] = nb.Dist
	}
	c.Add(r)
}
