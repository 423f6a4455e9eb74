package online

import "repro/internal/stats"

// Report is one strategy's empirical competitive-ratio measurement against
// the offline algorithms on a single instance, as built by the root
// package's CompareOnline. LowerBound covers the arrivals the run
// admitted, while VsOffline and VsExact still compare against schedules
// of the full instance: a run that rejects arrivals can read below 1
// there.
type Report struct {
	// Strategy names the online policy.
	Strategy string `json:"strategy"`
	// Cost, Machines and PeakOpen summarize the online run; Rejected
	// counts arrivals declined by admission control.
	Cost     int64 `json:"cost"`
	Machines int   `json:"machines"`
	PeakOpen int   `json:"peak_open"`
	Rejected int   `json:"rejected,omitempty"`
	// OfflineCost is the cost of the Solver's offline auto dispatch and
	// OfflineAlg its algorithm name — the strongest polynomial offline
	// baseline for the class.
	OfflineCost int64  `json:"offline_cost"`
	OfflineAlg  string `json:"offline_alg"`
	// ExactCost is exact.MinBusy's optimum; HasExact is false when the
	// instance exceeds exact.MaxN and the oracle was skipped.
	ExactCost int64 `json:"exact_cost"`
	HasExact  bool  `json:"has_exact"`
	// LowerBound is the Observation 2.1 bound max(len/g, span) over the
	// arrivals the run admitted: the full instance's bound unless
	// admission control rejected some.
	LowerBound int64 `json:"lower_bound"`
}

// VsOffline returns the empirical ratio against the offline baseline.
func (r Report) VsOffline() float64 { return stats.Ratio(r.Cost, r.OfflineCost) }

// VsExact returns the empirical competitive ratio against the optimum, or
// 0 when the exact oracle was not run.
func (r Report) VsExact() float64 {
	if !r.HasExact {
		return 0
	}
	return stats.Ratio(r.Cost, r.ExactCost)
}

// VsLowerBound returns the ratio against the Observation 2.1 lower bound —
// an upper bound on the true competitive ratio, available at any size.
func (r Report) VsLowerBound() float64 { return stats.Ratio(r.Cost, r.LowerBound) }
