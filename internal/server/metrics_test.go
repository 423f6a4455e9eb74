package server

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
)

// parseExposition splits Prometheus text output into sample lines,
// returning name{labels} -> value.
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("malformed value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// checkHistogram asserts the Prometheus histogram invariants for one
// metric (with optional labels, given without the le pair): cumulative
// buckets are monotonically non-decreasing, the +Inf bucket is present,
// and its count equals _count.
func checkHistogram(t *testing.T, samples map[string]float64, name, labels string) {
	t.Helper()
	sep := ""
	if labels != "" {
		sep = ","
	}
	buckets := 0
	var inf float64
	hasInf := false
	for key, v := range samples {
		if !strings.HasPrefix(key, name+"_bucket{"+labels+sep+"le=") {
			continue
		}
		buckets++
		if strings.Contains(key, `le="+Inf"`) {
			inf, hasInf = v, true
		}
	}
	if buckets == 0 {
		t.Fatalf("histogram %s{%s}: no buckets rendered", name, labels)
	}
	if !hasInf {
		t.Fatalf("histogram %s{%s}: no +Inf bucket", name, labels)
	}
	countKey := name + "_count"
	if labels != "" {
		countKey = name + "_count{" + labels + "}"
	}
	count, ok := samples[countKey]
	if !ok {
		t.Fatalf("histogram %s{%s}: no _count sample", name, labels)
	}
	if inf != count {
		t.Errorf("histogram %s{%s}: +Inf bucket %g != _count %g", name, labels, inf, count)
	}
}

// checkHistogramMonotone walks the exposition text in order and checks
// each histogram's cumulative buckets never decrease.
func checkHistogramMonotone(t *testing.T, text string) {
	t.Helper()
	prevByName := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if !strings.Contains(line, "_bucket{") {
			continue
		}
		name := line[:strings.Index(line, "_bucket{")]
		// Per-strategy histograms are separate series; key by name+labels
		// minus the le pair.
		labels := line[strings.Index(line, "{"):strings.LastIndex(line, " ")]
		le := strings.Index(labels, "le=")
		series := name + labels[:le]
		v, err := strconv.ParseFloat(strings.TrimSpace(line[strings.LastIndex(line, " ")+1:]), 64)
		if err != nil {
			t.Fatalf("malformed bucket line %q: %v", line, err)
		}
		if prev, ok := prevByName[series]; ok && v < prev {
			t.Errorf("histogram series %s: bucket fell %g -> %g (%q)", series, prev, v, line)
		}
		prevByName[series] = v
	}
}

// TestMetricsHistogramExposition renders /metrics after a spread of
// observations and checks Prometheus-text conformance: every histogram's
// buckets are cumulative (monotonically non-decreasing) and end in a
// +Inf bucket whose count equals _count.
func TestMetricsHistogramExposition(t *testing.T) {
	m := newMetrics()
	durations := []time.Duration{
		50 * time.Microsecond, 300 * time.Microsecond, time.Millisecond,
		7 * time.Millisecond, 80 * time.Millisecond, 2 * time.Second, time.Minute, // past the last bound
	}
	for _, d := range durations {
		m.observeSolve("greedy-tracking", d)
		m.observeBatch("auto", d, 3)
	}
	m.observeSolve("error", time.Millisecond)
	m.observeBatch("auto", time.Millisecond, 10000) // past the last batch-size bound
	m.observePhases("greedy-tracking", &trace.Node{Name: "solve", DurationNS: 5e6, Children: []*trace.Node{
		{Name: "classify", DurationNS: 1e6},
		{Name: "placement", DurationNS: 3e6},
		{Name: "bound", DurationNS: 5e5},
	}})
	bestfit, budget := m.stages("online-bestfit"), m.stages("online-budget")
	for i := 0; i < 5; i++ {
		us := int64(i+1) * int64(time.Microsecond)
		bestfit.observe([len(streamStages)]int64{us, 2 * us, us / 2})
		budget.observe([len(streamStages)]int64{int64(time.Second), 0, int64(time.Millisecond)})
	}

	var buf bytes.Buffer
	m.writeTo(&buf)
	text := buf.String()
	samples := parseExposition(t, text)
	checkHistogram(t, samples, "busyd_solve_latency_seconds", `algorithm="greedy-tracking"`)
	checkHistogram(t, samples, "busyd_solve_latency_seconds", `algorithm="error"`)
	checkHistogram(t, samples, "busyd_batch_latency_seconds", `algorithm="auto"`)
	checkHistogram(t, samples, "busyd_batch_size", "")
	for _, phase := range []string{"classify", "placement", "bound"} {
		checkHistogram(t, samples, "busyd_solve_phase_seconds", `algorithm="greedy-tracking",phase="`+phase+`"`)
	}
	for _, stage := range streamStages {
		checkHistogram(t, samples, "busyd_stream_stage_latency_seconds", `strategy="online-bestfit",stage="`+stage+`"`)
		checkHistogram(t, samples, "busyd_stream_stage_latency_seconds", `strategy="online-budget",stage="`+stage+`"`)
	}
	checkHistogramMonotone(t, text)

	if got := samples[`busyd_solve_latency_seconds_count{algorithm="greedy-tracking"}`]; got != float64(len(durations)) {
		t.Errorf("solve latency count %g, want %d", got, len(durations))
	}
	// The structural "solve" root groups its phases; it must not become a
	// phase series of its own.
	for key := range samples {
		if strings.Contains(key, `phase="solve"`) {
			t.Errorf("structural span leaked into the phase histograms: %s", key)
		}
	}
}

// TestMetricsRuntimeGauges checks the Go runtime block renders sane
// values: a live process has goroutines and a heap.
func TestMetricsRuntimeGauges(t *testing.T) {
	m := newMetrics()
	var buf bytes.Buffer
	m.writeTo(&buf)
	samples := parseExposition(t, buf.String())
	if samples["busyd_goroutines"] < 1 {
		t.Errorf("busyd_goroutines = %g, want >= 1", samples["busyd_goroutines"])
	}
	if samples["busyd_heap_alloc_bytes"] <= 0 {
		t.Errorf("busyd_heap_alloc_bytes = %g, want > 0", samples["busyd_heap_alloc_bytes"])
	}
	for _, key := range []string{"busyd_gc_cycles_total", "busyd_gc_pause_seconds_total"} {
		if v, ok := samples[key]; !ok || v < 0 {
			t.Errorf("%s = %g (present %v), want present and >= 0", key, v, ok)
		}
	}
}

// TestMetricsHistogramConsistentUnderConcurrency hammers a histogram from
// writers while rendering it, re-checking the +Inf == _count invariant on
// every render: the exposition must snapshot, not sum live counters into
// a drifting total.
func TestMetricsHistogramConsistentUnderConcurrency(t *testing.T) {
	m := newMetrics()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					m.observeSolve("greedy-tracking", time.Duration(i%1000)*time.Microsecond)
				}
			}
		}(w)
	}
	for render := 0; render < 200; render++ {
		var buf bytes.Buffer
		m.writeTo(&buf)
		samples := parseExposition(t, buf.String())
		inf := samples[`busyd_solve_latency_seconds_bucket{algorithm="greedy-tracking",le="+Inf"}`]
		count := samples[`busyd_solve_latency_seconds_count{algorithm="greedy-tracking"}`]
		if inf != count {
			close(stop)
			wg.Wait()
			t.Fatalf("render %d: +Inf bucket %g != _count %g under concurrent observes", render, inf, count)
		}
		checkHistogramMonotone(t, buf.String())
	}
	close(stop)
	wg.Wait()
}

// TestMetricsStreamCounters checks the new stream gauges/counters render.
func TestMetricsStreamCounters(t *testing.T) {
	m := newMetrics()
	m.requestsStream.Add(3)
	m.streamsOpen.Add(2)
	m.streamAssigned.Add(41)
	m.streamRejected.Add(1)
	var buf bytes.Buffer
	m.writeTo(&buf)
	samples := parseExposition(t, buf.String())
	for key, want := range map[string]float64{
		`busyd_requests_total{endpoint="stream"}`:       3,
		"busyd_streams_open":                            2,
		`busyd_stream_events_total{outcome="assigned"}`: 41,
		`busyd_stream_events_total{outcome="rejected"}`: 1,
		"busyd_stream_errors_total":                     0,
	} {
		if got := samples[key]; got != want {
			t.Errorf("%s = %g, want %g", key, got, want)
		}
	}
}
