package vaq

import (
	"vaq/internal/alert"
	"vaq/internal/bundle"
)

// BundleConfig tunes a flight recorder: the bundle directory, the
// metric-snapshot ring cadence/size, the post-trigger delay, the automatic
// bundle cap, and the shape of the workload ring installed when no capture
// is attached (see the field docs in internal/bundle.Config).
type BundleConfig = bundle.Config

// FlightRecorder is an armed incident recorder: it watches the index's
// alert bus and freezes recent context into incident bundles. Obtain one
// with EnableFlightRecorder; it also supports manual Trigger and exposes a
// point-in-time Status.
type FlightRecorder = bundle.Recorder

// BundleManifest is an incident bundle's completion marker: format
// version, index provenance, the trigger, and per-file integrity records.
// The bundle layout is documented in DESIGN.md.
type BundleManifest = bundle.Manifest

// ValidateBundle integrity-checks one incident-bundle directory (manifest
// version, per-file sizes and sha256s, JSON well-formedness, workload-log
// decode) and returns its manifest.
func ValidateBundle(dir string) (*BundleManifest, error) { return bundle.Validate(dir) }

// ListBundles loads the manifests of every complete bundle under root,
// ordered by sequence.
func ListBundles(root string) ([]*BundleManifest, error) { return bundle.List(root) }

// AlertBus is the index's registry of named edge-latched alert sources
// (vaq.drift, vaq.skew, vaq.slo.latency, vaq.slo.recall). Subscribers see
// one event per breach/recovery edge; the flight recorder is its built-in
// consumer.
type AlertBus = alert.Bus

// AlertEvent is one breach or recovery edge published on the AlertBus.
type AlertEvent = alert.Event

// AlertStatus is one alert source's point-in-time state.
type AlertStatus = alert.Status

// Alerts returns the index's alert bus, or nil when metrics are disabled.
// Drift and SLO latches publish their breach/recovery edges here, and on
// a ShardedIndex the vaq.skew latch too.
func (ix *observed) Alerts() *AlertBus { return ix.att.Alerts() }

// EnableFlightRecorder arms a flight recorder on the index: on any alert
// breach edge (or FlightRecorder.Trigger), the recent context — metrics
// snapshot and windowed history, alert history, query traces, a replayable
// .vaqwl of recent sampled queries, the IndexReport, runtime stats — is
// frozen into a versioned incident bundle under cfg.Dir. name is stamped
// into each bundle's provenance. When no workload capture is attached, a
// ring-shaped one is installed so bundles always carry a replayable log.
// On a ShardedIndex the bundle's workload log carries the merged (global)
// result lists and its provenance the shard count, so the embedded .vaqwl
// replays through the same scatter shape. Armed but idle, the query path
// cost is unchanged (the recorder subscribes to the alert bus; it is
// never consulted per query). Disarm with DisableFlightRecorder.
func (ix *observed) EnableFlightRecorder(name string, cfg BundleConfig) (*FlightRecorder, error) {
	return ix.att.EnableFlightRecorder(name, cfg)
}

// DisableFlightRecorder disarms the flight recorder, flushing pending
// alert-triggered bundles first. No-op when none is armed.
func (ix *observed) DisableFlightRecorder() error { return ix.att.DisableFlightRecorder() }

// FlightRecorder returns the armed recorder, or nil.
func (ix *observed) FlightRecorder() *FlightRecorder { return ix.att.FlightRecorder() }
