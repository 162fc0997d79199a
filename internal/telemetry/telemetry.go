// Package telemetry is the repo's dependency-free observability core:
// lock-free counters and gauges, fixed-bucket power-of-two histograms,
// a named-metric registry with immutable snapshots, and a Prometheus
// text-exposition encoder. Every layer of the system records into it —
// engine (cache traffic, per-cell wall time, route replays, oracle
// verdicts), serve (request latencies, checkpoint flush/fsync cost),
// coord (lease lifecycle) and client (retry classes, healed gaps) —
// and rvserved/rvcoord expose it at GET /metrics.
//
// Two invariants shape the design (DESIGN.md §7):
//
//   - The record path allocates nothing and takes a few nanoseconds:
//     Counter.Inc/Add, Gauge.Set/Add and Histogram.Observe are single
//     (or for histograms, three) uncontended atomic adds, annotated
//     //rvlint:hotpath so the hotalloc analyzer mechanically forbids
//     any allocation from creeping in. Scheduler-grade hot loops may
//     therefore call them directly.
//
//   - Telemetry is invisible to results. Nothing recorded here ever
//     feeds a SweepReport, a seed string or any other deterministic
//     output; the engine's telemetry-on-vs-off differential test pins
//     byte-identical reports. That separation is also why this package
//     may read the wall clock (Now, Since) while the result-producing
//     packages are forbidden to by the determinism analyzer: a timing
//     observed here can only ever land in a metric or a trace span,
//     never in a result.
package telemetry

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is
// ready to use; all methods are safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
//
//rvlint:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
//
//rvlint:hotpath
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down. The zero value is ready
// to use; all methods are safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value.
//
//rvlint:hotpath
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by d (negative to decrease).
//
//rvlint:hotpath
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the histogram's fixed bucket count: bucket i counts
// observations v with bits.Len64(v) == i, i.e. bucket 0 holds v == 0
// and bucket i >= 1 holds v in [2^(i-1), 2^i - 1]. 65 slots cover the
// whole uint64 range, so Observe never branches on bounds.
const histBuckets = 65

// Histogram is a fixed-bucket histogram over uint64 observations with
// power-of-two bucket boundaries. The zero value is ready to use; all
// methods are safe for concurrent use. Recording is three uncontended
// atomic adds and allocates nothing, so hot paths may observe values
// (typically nanosecond durations via ObserveSince) inline.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one value.
//
//rvlint:hotpath
func (h *Histogram) Observe(v uint64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(v)].Add(1)
}

// ObserveSince records the nanoseconds elapsed since start, a
// timestamp previously obtained from Now.
//
//rvlint:hotpath
func (h *Histogram) ObserveSince(startNs int64) {
	d := Now() - startNs
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d))
}

// Count returns how many values have been observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// processStart anchors the package's monotonic clock: Now reports
// nanoseconds since process start, so spans and durations derived from
// it are immune to wall-clock adjustments.
var processStart = time.Now()

// Now returns the telemetry clock: monotonic nanoseconds since process
// start. Pair it with Histogram.ObserveSince or Since to time a span.
// Result-producing packages use this instead of time.Now — the
// determinism analyzer bans the wall clock there precisely so that
// timings can only flow into telemetry, never into results.
func Now() int64 { return int64(time.Since(processStart)) }

// Since returns the nanoseconds elapsed since a Now timestamp.
func Since(startNs int64) int64 { return Now() - startNs }

// BucketBound returns the inclusive upper bound of histogram bucket i
// (0 for bucket 0, 2^i - 1 for i >= 1); the last bucket's bound is
// MaxUint64, rendered as +Inf in the exposition.
func BucketBound(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(i) - 1
}
