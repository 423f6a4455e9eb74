package server

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	busytime "repro"
	"repro/internal/safemath"
	"repro/internal/trace"
)

// latencyBounds are the solve-latency histogram bucket upper bounds in
// seconds, spanning microsecond dispatch overhead to multi-second exact
// oracle runs.
var latencyBounds = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// stageLatencyBounds bucket the per-arrival stream stages, which sit
// well under the solve-latency range: a single placement is a treap probe
// over the open machines, not a whole instance solve.
var stageLatencyBounds = []float64{
	0.000001, 0.0000025, 0.000005, 0.00001, 0.000025, 0.00005,
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.1,
}

// phaseBounds bucket the per-phase solve breakdown, which spans
// sub-microsecond dispatch/bound spans up to multi-second placements —
// the union of the solve- and stage-latency ranges.
var phaseBounds = []float64{
	0.0000001, 0.000001, 0.00001, 0.0001, 0.0005, 0.001, 0.0025,
	0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// batchSizeBounds bucket the number of requests per batch.
var batchSizeBounds = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// flushSizeBounds bucket the arrivals per stream flush, which caps at
// maxFlush (128).
var flushSizeBounds = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// transitionBounds bucket the reoptimization transition cost — the
// number of carried-over jobs a repair reassigned. Zero is its own
// bucket: an in-place repair that disturbed nothing is the common case
// worth seeing directly.
var transitionBounds = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// streamStages are the per-arrival serving stages broken out in
// /metrics: time queued before a flush, the flush wall clock (journal
// append + fsync shared by the flush's arrivals), and the strategy's
// own placement time.
var streamStages = [...]string{"queue", "flush", "solve"}

// histogram is a fixed-bucket cumulative histogram with atomic counters,
// rendered in the Prometheus text exposition format.
type histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is +Inf
	sum    atomic.Int64   // scaled observations (nanoseconds / raw counts)
	scale  float64        // divides sum on render (1e9 for nanoseconds)
}

func newHistogram(bounds []float64, scale float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1), scale: scale}
}

// observe records one value (already in the bounds' unit).
func (h *histogram) observe(v float64, raw int64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.Add(raw)
}

// writeTo renders the cumulative buckets under the given metric name,
// with labels ("" or a `key="value"` list without braces) applied to
// every sample. The per-bucket counters are snapshotted first and the
// total is derived from that one snapshot, so the exposition is always
// internally consistent: buckets are monotonically non-decreasing and
// the +Inf bucket equals _count even while observations land
// concurrently. (Summing live atomics directly into the running
// cumulative could otherwise render +Inf ≠ _count — not valid
// Prometheus histogram output.)
func (h *histogram) writeTo(w io.Writer, name, labels string) {
	counts := make([]int64, len(h.counts))
	var total int64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total = safemath.SatAdd(total, counts[i])
	}
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum int64
	for i, b := range h.bounds {
		cum = safemath.SatAdd(cum, counts[i])
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, formatBound(b), cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, total)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %g\n", name, float64(h.sum.Load())/h.scale)
		fmt.Fprintf(w, "%s_count %d\n", name, total)
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %g\n", name, labels, float64(h.sum.Load())/h.scale)
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, total)
	}
}

func formatBound(b float64) string {
	return fmt.Sprintf("%g", b)
}

// histogramVec is a family of fixed-bucket histograms keyed by a
// rendered exposition label list (`algorithm="x"`, or
// `algorithm="x",phase="y"`), grown lazily on first observation so
// plugin-registered algorithms are covered without a rebuild — the same
// pattern the per-strategy stream stage histograms use.
type histogramVec struct {
	bounds []float64
	scale  float64
	mu     sync.RWMutex
	m      map[string]*histogram
}

func newHistogramVec(bounds []float64, scale float64) *histogramVec {
	return &histogramVec{bounds: bounds, scale: scale, m: map[string]*histogram{}}
}

func (v *histogramVec) get(labels string) *histogram {
	v.mu.RLock()
	h := v.m[labels]
	v.mu.RUnlock()
	if h == nil {
		v.mu.Lock()
		if h = v.m[labels]; h == nil {
			h = newHistogram(v.bounds, v.scale)
			v.m[labels] = h
		}
		v.mu.Unlock()
	}
	return h
}

// observe records one value under the family named by labels.
func (v *histogramVec) observe(labels string, value float64, raw int64) {
	v.get(labels).observe(value, raw)
}

// writeTo renders every labeled family in sorted label order. The
// family pointers are snapshotted before rendering so a slow scraper
// never holds the growth lock (histograms themselves are atomic and
// never removed).
func (v *histogramVec) writeTo(w io.Writer, name string) {
	type family struct {
		labels string
		h      *histogram
	}
	v.mu.RLock()
	families := make([]family, 0, len(v.m))
	for labels, h := range v.m {
		families = append(families, family{labels, h})
	}
	v.mu.RUnlock()
	sort.Slice(families, func(i, j int) bool { return families[i].labels < families[j].labels })
	for _, f := range families {
		f.h.writeTo(w, name, f.labels)
	}
}

// metrics is the daemon's plain-text counter set: request counts per
// endpoint, admission rejections, per-request error count, the in-flight
// and open-stream gauges, and latency/batch-size histograms. All fields
// are atomics (plus one mutex around the lazily-grown per-strategy map);
// the /metrics handler renders a consistent snapshot per histogram.
type metrics struct {
	requestsSolve      atomic.Int64
	requestsBatch      atomic.Int64
	requestsStream     atomic.Int64
	requestsAlgorithms atomic.Int64
	requestsHealth     atomic.Int64
	solveErrors        atomic.Int64 // per-request solve failures (single + batch items)
	rejectedOverload   atomic.Int64 // 429: in-flight cap
	rejectedTooLarge   atomic.Int64 // 413: instance or batch size cap
	badRequests        atomic.Int64 // 400: malformed wire input
	inFlight           atomic.Int64
	streamsOpen        atomic.Int64  // live /v1/stream sessions
	streamAssigned     atomic.Int64  // stream arrivals placed on a machine
	streamRejected     atomic.Int64  // stream arrivals declined by admission control
	streamErrors       atomic.Int64  // streams aborted by an in-stream error event
	streamsResumed     atomic.Int64  // sessions continued from their journal
	requestsJournal    atomic.Int64  // GET /v1/stream/journal
	batchInstances     atomic.Int64  // total requests across all batches
	reoptHits          atomic.Int64  // solves served from the fingerprint cache
	reoptRepairs       atomic.Int64  // solves warm-started and repaired from a near-hit or BaseID
	reoptMisses        atomic.Int64  // solves that ran cold and seeded the cache
	requestsTraces     atomic.Int64  // GET /debug/traces
	solveLatency       *histogramVec // per algorithm ("error" for failed solves)
	batchLatency       *histogramVec // per pinned batch algorithm ("auto" unpinned)
	phaseLatency       *histogramVec // per algorithm and solve phase, from the span tree
	batchSize          *histogram
	flushSize          *histogram // arrivals per stream flush
	transitionCost     *histogram // reassigned jobs per repair

	// stageLatency holds the queue/flush/solve histograms per online
	// strategy, keyed by canonical name and grown lazily on first use so
	// plugin-registered strategies are covered without a rebuild.
	stageMu      sync.RWMutex
	stageLatency map[string]*[len(streamStages)]*histogram
}

func newMetrics() *metrics {
	return &metrics{
		solveLatency:   newHistogramVec(latencyBounds, 1e9),
		batchLatency:   newHistogramVec(latencyBounds, 1e9),
		phaseLatency:   newHistogramVec(phaseBounds, 1e9),
		batchSize:      newHistogram(batchSizeBounds, 1),
		flushSize:      newHistogram(flushSizeBounds, 1),
		transitionCost: newHistogram(transitionBounds, 1),
		stageLatency:   map[string]*[len(streamStages)]*histogram{},
	}
}

// observeSolve records one single-solve wall clock under its
// algorithm's family ("error" when the solve failed — failures have a
// latency profile of their own worth seeing).
func (m *metrics) observeSolve(algorithm string, d time.Duration) {
	m.solveLatency.observe(fmt.Sprintf("algorithm=%q", algorithm), d.Seconds(), d.Nanoseconds())
}

// observeBatch records one whole-batch wall clock under the pinned
// batch algorithm ("auto" when the batch dispatches per request).
func (m *metrics) observeBatch(algorithm string, d time.Duration, size int) {
	m.batchLatency.observe(fmt.Sprintf("algorithm=%q", algorithm), d.Seconds(), d.Nanoseconds())
	m.batchSize.observe(float64(size), int64(size))
	m.batchInstances.Add(int64(size))
}

// observePhases feeds one solve's span tree into the
// busyd_solve_phase_seconds{algorithm,phase} histograms: every
// non-structural span (dispatch, bound, placement, local-search,
// reopt.*, certify) is one observation under its phase name.
func (m *metrics) observePhases(algorithm string, node *trace.Node) {
	if node == nil {
		return
	}
	for phase, ns := range phaseDurations(node) {
		m.phaseLatency.observe(fmt.Sprintf("algorithm=%q,phase=%q", algorithm, phase),
			float64(ns)/1e9, ns)
	}
}

// observeStreamStages records one arrival's per-stage serving timings
// (nanoseconds, streamStages order) under its strategy's histograms.
func (m *metrics) observeStreamStages(strategy string, stageNS [len(streamStages)]int64) {
	m.stageMu.RLock()
	hs := m.stageLatency[strategy]
	m.stageMu.RUnlock()
	if hs == nil {
		m.stageMu.Lock()
		if hs = m.stageLatency[strategy]; hs == nil {
			hs = new([len(streamStages)]*histogram)
			for i := range hs {
				hs[i] = newHistogram(stageLatencyBounds, 1e9)
			}
			m.stageLatency[strategy] = hs
		}
		m.stageMu.Unlock()
	}
	for i, ns := range stageNS {
		hs[i].observe(float64(ns)/1e9, ns)
	}
}

// observeFlushSize records one stream flush's arrival count.
func (m *metrics) observeFlushSize(size int) {
	m.flushSize.observe(float64(size), int64(size))
}

// observeReopt records one solve's cache outcome ("hit", "repair",
// "miss" — busytime's CacheOutcome strings) and, on a repair, its
// transition cost. Unknown or empty outcomes (cache disabled, non-cached
// kinds) are deliberately not counted.
func (m *metrics) observeReopt(outcome string, transition int) {
	switch outcome {
	case busytime.CacheHit:
		m.reoptHits.Add(1)
	case busytime.CacheRepair:
		m.reoptRepairs.Add(1)
		m.transitionCost.observe(float64(transition), int64(transition))
	case busytime.CacheMiss:
		m.reoptMisses.Add(1)
	}
}

// writeTo renders every counter in the Prometheus text format — plain
// counters and gauges, no client library dependency.
func (m *metrics) writeTo(w io.Writer) {
	fmt.Fprintf(w, "# HELP busyd_requests_total Requests received per endpoint.\n")
	fmt.Fprintf(w, "# TYPE busyd_requests_total counter\n")
	fmt.Fprintf(w, "busyd_requests_total{endpoint=\"solve\"} %d\n", m.requestsSolve.Load())
	fmt.Fprintf(w, "busyd_requests_total{endpoint=\"batch\"} %d\n", m.requestsBatch.Load())
	fmt.Fprintf(w, "busyd_requests_total{endpoint=\"stream\"} %d\n", m.requestsStream.Load())
	fmt.Fprintf(w, "busyd_requests_total{endpoint=\"stream_journal\"} %d\n", m.requestsJournal.Load())
	fmt.Fprintf(w, "busyd_requests_total{endpoint=\"algorithms\"} %d\n", m.requestsAlgorithms.Load())
	fmt.Fprintf(w, "busyd_requests_total{endpoint=\"healthz\"} %d\n", m.requestsHealth.Load())
	fmt.Fprintf(w, "busyd_requests_total{endpoint=\"debug_traces\"} %d\n", m.requestsTraces.Load())
	fmt.Fprintf(w, "# HELP busyd_rejected_total Requests refused by admission control.\n")
	fmt.Fprintf(w, "# TYPE busyd_rejected_total counter\n")
	fmt.Fprintf(w, "busyd_rejected_total{reason=\"overload\"} %d\n", m.rejectedOverload.Load())
	fmt.Fprintf(w, "busyd_rejected_total{reason=\"too_large\"} %d\n", m.rejectedTooLarge.Load())
	fmt.Fprintf(w, "busyd_rejected_total{reason=\"bad_request\"} %d\n", m.badRequests.Load())
	fmt.Fprintf(w, "# HELP busyd_solve_errors_total Per-request solve failures.\n")
	fmt.Fprintf(w, "# TYPE busyd_solve_errors_total counter\n")
	fmt.Fprintf(w, "busyd_solve_errors_total %d\n", m.solveErrors.Load())
	fmt.Fprintf(w, "# HELP busyd_in_flight Solve, batch and stream requests currently admitted.\n")
	fmt.Fprintf(w, "# TYPE busyd_in_flight gauge\n")
	fmt.Fprintf(w, "busyd_in_flight %d\n", m.inFlight.Load())
	fmt.Fprintf(w, "# HELP busyd_streams_open Live /v1/stream sessions.\n")
	fmt.Fprintf(w, "# TYPE busyd_streams_open gauge\n")
	fmt.Fprintf(w, "busyd_streams_open %d\n", m.streamsOpen.Load())
	fmt.Fprintf(w, "# HELP busyd_stream_events_total Stream arrivals by admission outcome.\n")
	fmt.Fprintf(w, "# TYPE busyd_stream_events_total counter\n")
	fmt.Fprintf(w, "busyd_stream_events_total{outcome=\"assigned\"} %d\n", m.streamAssigned.Load())
	fmt.Fprintf(w, "busyd_stream_events_total{outcome=\"rejected\"} %d\n", m.streamRejected.Load())
	fmt.Fprintf(w, "# HELP busyd_stream_errors_total Streams aborted by an error event.\n")
	fmt.Fprintf(w, "# TYPE busyd_stream_errors_total counter\n")
	fmt.Fprintf(w, "busyd_stream_errors_total %d\n", m.streamErrors.Load())
	fmt.Fprintf(w, "# HELP busyd_streams_resumed_total Sessions continued from their journal.\n")
	fmt.Fprintf(w, "# TYPE busyd_streams_resumed_total counter\n")
	fmt.Fprintf(w, "busyd_streams_resumed_total %d\n", m.streamsResumed.Load())
	fmt.Fprintf(w, "# HELP busyd_batch_instances_total Requests received inside batches.\n")
	fmt.Fprintf(w, "# TYPE busyd_batch_instances_total counter\n")
	fmt.Fprintf(w, "busyd_batch_instances_total %d\n", m.batchInstances.Load())
	fmt.Fprintf(w, "# HELP busyd_reopt_total Solves by reoptimization cache outcome.\n")
	fmt.Fprintf(w, "# TYPE busyd_reopt_total counter\n")
	fmt.Fprintf(w, "busyd_reopt_total{outcome=\"hit\"} %d\n", m.reoptHits.Load())
	fmt.Fprintf(w, "busyd_reopt_total{outcome=\"repair\"} %d\n", m.reoptRepairs.Load())
	fmt.Fprintf(w, "busyd_reopt_total{outcome=\"miss\"} %d\n", m.reoptMisses.Load())
	fmt.Fprintf(w, "# HELP busyd_solve_latency_seconds Single-solve wall clock, by algorithm.\n")
	fmt.Fprintf(w, "# TYPE busyd_solve_latency_seconds histogram\n")
	m.solveLatency.writeTo(w, "busyd_solve_latency_seconds")
	fmt.Fprintf(w, "# HELP busyd_batch_latency_seconds Whole-batch wall clock, by pinned algorithm.\n")
	fmt.Fprintf(w, "# TYPE busyd_batch_latency_seconds histogram\n")
	m.batchLatency.writeTo(w, "busyd_batch_latency_seconds")
	fmt.Fprintf(w, "# HELP busyd_solve_phase_seconds Solve phase breakdown from the span tree, by algorithm and phase.\n")
	fmt.Fprintf(w, "# TYPE busyd_solve_phase_seconds histogram\n")
	m.phaseLatency.writeTo(w, "busyd_solve_phase_seconds")
	fmt.Fprintf(w, "# HELP busyd_batch_size Requests per batch.\n")
	fmt.Fprintf(w, "# TYPE busyd_batch_size histogram\n")
	m.batchSize.writeTo(w, "busyd_batch_size", "")
	fmt.Fprintf(w, "# HELP busyd_stream_flush_size Arrivals per stream flush.\n")
	fmt.Fprintf(w, "# TYPE busyd_stream_flush_size histogram\n")
	m.flushSize.writeTo(w, "busyd_stream_flush_size", "")
	fmt.Fprintf(w, "# HELP busyd_reopt_transition_jobs Carried-over jobs reassigned per repair.\n")
	fmt.Fprintf(w, "# TYPE busyd_reopt_transition_jobs histogram\n")
	m.transitionCost.writeTo(w, "busyd_reopt_transition_jobs", "")

	// Snapshot the per-strategy histogram pointers before rendering:
	// writing to w can block on a slow scraper, and holding stageMu
	// through that would let a queued writer in observeStreamStages stall
	// every stream session's per-arrival hot path behind the scrape. The
	// histograms themselves are atomic and never removed, so rendering
	// outside the lock is safe.
	type namedStages struct {
		name string
		hs   *[len(streamStages)]*histogram
	}
	m.stageMu.RLock()
	staged := make([]namedStages, 0, len(m.stageLatency))
	for name, hs := range m.stageLatency {
		staged = append(staged, namedStages{name, hs})
	}
	m.stageMu.RUnlock()
	sort.Slice(staged, func(i, j int) bool { return staged[i].name < staged[j].name })
	if len(staged) > 0 {
		fmt.Fprintf(w, "# HELP busyd_stream_stage_latency_seconds Per-arrival serving stages (queue wait, flush, solve), by strategy.\n")
		fmt.Fprintf(w, "# TYPE busyd_stream_stage_latency_seconds histogram\n")
		for _, s := range staged {
			for i, stage := range streamStages {
				s.hs[i].writeTo(w, "busyd_stream_stage_latency_seconds",
					fmt.Sprintf("strategy=%q,stage=%q", s.name, stage))
			}
		}
	}

	// Go runtime gauges, snapshotted per render so operators can
	// correlate solve latency with scheduler load and GC pressure.
	// ReadMemStats briefly stops the world; once per scrape is cheap.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(w, "# HELP busyd_goroutines Live goroutines at render time.\n")
	fmt.Fprintf(w, "# TYPE busyd_goroutines gauge\n")
	fmt.Fprintf(w, "busyd_goroutines %d\n", runtime.NumGoroutine())
	fmt.Fprintf(w, "# HELP busyd_heap_alloc_bytes Heap bytes allocated and still in use.\n")
	fmt.Fprintf(w, "# TYPE busyd_heap_alloc_bytes gauge\n")
	fmt.Fprintf(w, "busyd_heap_alloc_bytes %d\n", ms.HeapAlloc)
	fmt.Fprintf(w, "# HELP busyd_gc_cycles_total Completed GC cycles.\n")
	fmt.Fprintf(w, "# TYPE busyd_gc_cycles_total counter\n")
	fmt.Fprintf(w, "busyd_gc_cycles_total %d\n", ms.NumGC)
	fmt.Fprintf(w, "# HELP busyd_gc_pause_seconds_total Cumulative stop-the-world GC pause time.\n")
	fmt.Fprintf(w, "# TYPE busyd_gc_pause_seconds_total counter\n")
	fmt.Fprintf(w, "busyd_gc_pause_seconds_total %g\n", float64(ms.PauseTotalNs)/1e9)
}
