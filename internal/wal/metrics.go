package wal

import "spotdc/internal/metrics"

// Metrics is the wal_* instrumentation family set. A nil Options.Metrics
// runs the log uninstrumented at zero cost.
type Metrics struct {
	appends      *metrics.Counter
	appendBytes  *metrics.Counter
	fsyncs       *metrics.Counter
	fsyncSeconds *metrics.Histogram
	truncations  *metrics.Counter
	segments     *metrics.Gauge
}

// fsyncBounds buckets fsync latency: sub-100µs page-cache hits through
// spinning-rust worst cases.
var fsyncBounds = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25}

// NewMetrics registers the wal_* families on r.
func NewMetrics(r *metrics.Registry) *Metrics {
	return &Metrics{
		appends: r.Counter("spotdc_wal_appends_total",
			"Records appended to the write-ahead log."),
		appendBytes: r.Counter("spotdc_wal_append_bytes_total",
			"Framed bytes appended to the write-ahead log (headers and checksums included)."),
		fsyncs: r.Counter("spotdc_wal_fsyncs_total",
			"fsync calls issued by the write-ahead log."),
		fsyncSeconds: r.Histogram("spotdc_wal_fsync_seconds",
			"Write-ahead log fsync latency in seconds.", fsyncBounds),
		truncations: r.Counter("spotdc_wal_recovery_truncations_total",
			"Torn or corrupt record tails truncated during recovery."),
		segments: r.Gauge("spotdc_wal_segments",
			"Live write-ahead log segment files."),
	}
}
