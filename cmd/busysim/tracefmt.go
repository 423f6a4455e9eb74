package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/server"
	"repro/internal/trace"
)

// newTraceparent mints a fresh W3C traceparent header value — the
// client-side root both subcommands send under -trace to opt into the
// daemon echoing its span tree.
func newTraceparent() string {
	return trace.Traceparent(trace.NewTraceID(), trace.NewSpanID())
}

// phaseBreakdown renders one span tree as "phase=duration" pairs sorted
// slowest-first — the shape printed next to the latency percentiles.
func phaseBreakdown(node *trace.Node) string {
	totals := server.PhaseDurations(node)
	type phase struct {
		name string
		ns   int64
	}
	phases := make([]phase, 0, len(totals))
	for name, ns := range totals {
		phases = append(phases, phase{name, ns})
	}
	sort.Slice(phases, func(i, j int) bool {
		if phases[i].ns != phases[j].ns {
			return phases[i].ns > phases[j].ns
		}
		return phases[i].name < phases[j].name
	})
	parts := make([]string, len(phases))
	for i, p := range phases {
		parts[i] = fmt.Sprintf("%s=%.3fms", p.name, float64(p.ns)/1e6)
	}
	return strings.Join(parts, " ")
}
