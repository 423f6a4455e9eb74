package core

// SavingToCostRatio converts a saving-maximization approximation ratio to
// a MinBusy cost ratio (Lemma 2.1): a 1/ρ-fraction-of-optimal saving
// yields cost ≤ (1/ρ + (1 − 1/ρ)·g)·OPT. BestCut's analysis goes through
// this conversion with ρ = g/(g−1), giving 2 − 1/g.
func SavingToCostRatio(rho float64, g int) float64 {
	inv := 1 / rho
	return inv + (1-inv)*float64(g)
}
