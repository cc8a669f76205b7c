// Package observe owns an index's runtime attachments: the per-query span
// tracer, the workload capture buffer, the incident flight recorder and
// the metrics history collector, plus the vaq.slo, vaq.burn and vaq.skew
// structured-log events. The single index (internal/core) and the
// scatter-gather index (internal/shard) each embed one Attachments by
// value and Bind a Descriptor once at construction; everything that
// differs between the two index types comes from that descriptor, not
// from a second implementation.
package observe

import (
	"errors"
	"fmt"
	"log/slog"
	"sync/atomic"

	"vaq/internal/alert"
	"vaq/internal/bundle"
	"vaq/internal/diag"
	"vaq/internal/history"
	"vaq/internal/metrics"
	"vaq/internal/trace"
	"vaq/internal/workload"
)

// Descriptor is what the attachments need to know about the index they
// observe.
type Descriptor struct {
	// Metrics is the index's registry — the merged end-to-end one on a
	// sharded index; nil under Config.DisableMetrics.
	Metrics *metrics.IndexMetrics
	// Fingerprint returns the index's current config fingerprint (it
	// follows runtime accuracy-mode switches).
	Fingerprint func() string
	// Dim is the raw query dimensionality.
	Dim int
	// Shards holds one registry per shard of a sharded index (an entry is
	// nil when that shard records no metrics) and is nil on an unsharded
	// index. Its length is the shard count stamped into capture and bundle
	// provenance and onto the vaq.slo and vaq.skew events.
	Shards []*metrics.IndexMetrics
	// Reports returns the index-quality reports, one per shard.
	Reports func() []*diag.Report
	// Logger returns the structured logger the events go to; it may
	// return nil, which discards them.
	Logger func() *slog.Logger
	// SLO, when set, is configured on Metrics at Bind with the vaq.slo
	// event as its breach callback.
	SLO *metrics.SLO
	// SkewAlertRatio is the vaq.skew threshold configured on Metrics at
	// Bind for sharded indexes (0 keeps the skew telemetry but no alert).
	SkewAlertRatio float64
}

// Attachments holds the four runtime-switchable observers. Each sits
// behind an atomic pointer, so it can be armed or dropped while queries
// are in flight; the query path reads tracer and capture with one load
// each and never touches the flight recorder or the history collector,
// which subscribe to the registry instead.
type Attachments struct {
	d       Descriptor
	tracer  atomic.Pointer[trace.Tracer]
	capture atomic.Pointer[workload.Capture]
	flight  atomic.Pointer[bundle.Recorder]
	hist    atomic.Pointer[history.Collector]
}

// Bind records d and wires the registry's SLO and (sharded) skew
// evaluators to the vaq.slo and vaq.skew events. Call once, before the
// index is shared.
func (a *Attachments) Bind(d Descriptor) {
	a.d = d
	if d.Metrics == nil {
		return
	}
	if d.SLO != nil {
		d.Metrics.ConfigureSLO(*d.SLO, a.sloEvent)
	}
	if len(d.Shards) > 0 {
		d.Metrics.ConfigureSharded(metrics.ShardedConfig{
			Shards:         len(d.Shards),
			SkewAlertRatio: d.SkewAlertRatio,
		}, a.skewEvent)
	}
}

// EnableTracing installs a fresh tracer built from cfg and returns it.
func (a *Attachments) EnableTracing(cfg trace.Config) *trace.Tracer {
	t := trace.New(cfg)
	a.tracer.Store(t)
	return t
}

// AttachTracer points the index at an existing tracer (nil detaches), so
// several indexes can aggregate into one ring.
func (a *Attachments) AttachTracer(t *trace.Tracer) { a.tracer.Store(t) }

// DisableTracing detaches the tracer; queries already in flight may still
// file one last trace.
func (a *Attachments) DisableTracing() { a.tracer.Store(nil) }

// Tracer returns the active tracer, or nil when tracing is disabled.
func (a *Attachments) Tracer() *trace.Tracer { return a.tracer.Load() }

// EnableCapture installs a workload capture buffer and returns it, filling
// cfg's provenance (fingerprint, dim and, when sharded, the shard count)
// from the descriptor.
func (a *Attachments) EnableCapture(cfg workload.Config) *workload.Capture {
	cfg.Fingerprint = a.d.Fingerprint()
	cfg.Dim = a.d.Dim
	if n := len(a.d.Shards); n > 0 {
		cfg.Shards = n
	}
	c := workload.NewCapture(cfg)
	a.capture.Store(c)
	return c
}

// DisableCapture detaches the capture buffer; records already stored stay
// readable through the Capture EnableCapture returned.
func (a *Attachments) DisableCapture() { a.capture.Store(nil) }

// Capture returns the active workload capture, or nil when capture is off.
func (a *Attachments) Capture() *workload.Capture { return a.capture.Load() }

// Alerts returns the registry's alert bus, or nil when metrics are off.
func (a *Attachments) Alerts() *alert.Bus { return a.d.Metrics.Alerts() }

// EnableFlightRecorder arms an incident recorder subscribed to the
// registry's alert bus. name is stamped into each bundle's provenance
// with the fingerprint and the shard count. When no capture is attached a
// ring-shaped one (cfg.WorkloadRing queries at cfg.WorkloadSampleRate) is
// installed; an existing one is reused. Errors when metrics are off or a
// recorder is already armed.
func (a *Attachments) EnableFlightRecorder(name string, cfg bundle.Config) (*bundle.Recorder, error) {
	if a.d.Metrics == nil {
		return nil, errors.New("vaq: flight recorder requires metrics (Config.DisableMetrics is set)")
	}
	if a.flight.Load() != nil {
		return nil, errors.New("vaq: flight recorder already armed")
	}
	if a.capture.Load() == nil {
		a.EnableCapture(workload.Config{
			SampleRate: cfg.WorkloadSampleRate,
			MaxRecords: cfg.WorkloadRing,
			Ring:       true,
		})
	}
	rec, err := bundle.New(cfg, bundle.Info{
		Name:        name,
		Fingerprint: a.d.Fingerprint(),
		Shards:      len(a.d.Shards),
	}, bundle.Hooks{
		Metrics:  a.d.Metrics,
		Alerts:   a.d.Metrics.Alerts(),
		Tracer:   a.Tracer,
		Workload: func() *workload.Log { return a.capture.Load().Snapshot() },
		Reports:  a.d.Reports,
		History: func() *history.Dump {
			if c := a.hist.Load(); c != nil {
				return c.Dump()
			}
			return nil // recorder falls back to its own sampler
		},
	})
	if err != nil {
		return nil, err
	}
	if !a.flight.CompareAndSwap(nil, rec) {
		rec.Close() //nolint:errcheck // racing arm loses; nothing written yet
		return nil, errors.New("vaq: flight recorder already armed")
	}
	return rec, nil
}

// DisableFlightRecorder disarms the recorder, flushing pending bundles
// first, and returns the last write error. No-op when none is armed; the
// workload capture stays attached.
func (a *Attachments) DisableFlightRecorder() error { return a.flight.Swap(nil).Close() }

// FlightRecorder returns the armed recorder, or nil.
func (a *Attachments) FlightRecorder() *bundle.Recorder { return a.flight.Load() }

// EnableHistory arms a history collector sampling the registry under name
// and, on a sharded index, every shard registry under name/shard-i. Burn
// rules arm only where an SLO is configured (the merged registry on a
// sharded index); a nil cfg.OnBurn logs vaq.burn events. Errors when
// metrics are off or a collector is already armed.
func (a *Attachments) EnableHistory(name string, cfg history.Config) (*history.Collector, error) {
	if a.d.Metrics == nil {
		return nil, errors.New("vaq: history collector requires metrics (Config.DisableMetrics is set)")
	}
	if a.hist.Load() != nil {
		return nil, errors.New("vaq: history collector already armed")
	}
	if cfg.OnBurn == nil {
		cfg.OnBurn = a.burnEvent
	}
	c := history.New(name, cfg)
	c.Watch(name, a.d.Metrics)
	for i, m := range a.d.Shards {
		c.Watch(fmt.Sprintf("%s/shard-%d", name, i), m) // nil m is skipped
	}
	if !a.hist.CompareAndSwap(nil, c) {
		c.Close()
		return nil, errors.New("vaq: history collector already armed")
	}
	return c, nil
}

// DisableHistory stops the collector after a final sweep and hands SLO
// alerting back to the instantaneous exhaustion edge. No-op when none is
// armed.
func (a *Attachments) DisableHistory() {
	if c := a.hist.Swap(nil); c != nil {
		c.Close()
	}
}

// History returns the armed collector, or nil.
func (a *Attachments) History() *history.Collector { return a.hist.Load() }

// warn emits one event; withShards appends the shard count on sharded
// indexes.
func (a *Attachments) warn(event string, withShards bool, attrs ...any) {
	l := a.d.Logger()
	if l == nil {
		return
	}
	if n := len(a.d.Shards); withShards && n > 0 {
		attrs = append(attrs, slog.Int("shards", n))
	}
	l.Warn(event, attrs...)
}

// sloEvent is the metrics.BreachFunc for the configured SLO: one vaq.slo
// event per budget-exhaustion edge (the registry latches the edge).
// Called from the query path — one log line, nothing else.
func (a *Attachments) sloEvent(kind string, remaining, burn float64) {
	a.warn("vaq.slo", true,
		slog.String("objective", kind),
		slog.Float64("budget_remaining", remaining),
		slog.Float64("burn_rate", burn))
}

// skewEvent is the metrics.SkewBreachFunc of a sharded registry: one
// vaq.skew event per windowed shard-skew alert edge.
func (a *Attachments) skewEvent(skew, imbalance float64, criticalShard int) {
	a.warn("vaq.skew", true,
		slog.Float64("skew_ratio", skew),
		slog.Float64("load_imbalance", imbalance),
		slog.Int("critical_shard", criticalShard))
}

// burnEvent is the default history.Config.OnBurn: one vaq.burn event per
// burn-rule breach edge, on the collector goroutine.
func (a *Attachments) burnEvent(target string, st metrics.BurnRuleStatus) {
	a.warn("vaq.burn", false,
		slog.String("target", target),
		slog.String("objective", st.Objective),
		slog.String("rule", st.Rule),
		slog.Float64("burn", st.Burn),
		slog.Float64("short_burn", st.ShortBurn),
		slog.Float64("threshold", st.Threshold),
		slog.String("window", st.Window.String()),
		slog.String("confirm", st.Confirm.String()))
}
