// Package reopt implements the reoptimization layer: canonical-form
// instance fingerprinting, a bounded cache of prior solves, and a local
// repair solver that warm-starts from a cached incumbent assignment.
//
// Production clients resubmit near-identical instances — one job added,
// one cancelled, a window shifted — and the metamorphic equivalence
// classes of the conformance harness (job permutation, time translation,
// ID renumbering) define exactly when two submissions are the same
// instance: cost and validity are invariant under all three. The
// canonical form quotients by them — jobs sorted to the paper's
// J1 ≤ … ≤ Jn order, the time line translated to a zero origin, IDs
// dropped — so a fingerprint lookup serves permuted and time-shifted
// resubmissions for free, and a small symmetric difference of canonical
// job multisets routes through the repair path (following "Optimization
// and Reoptimization in Scheduling Problems", arXiv 1509.01630).
package reopt

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"

	"repro/internal/job"
)

// CanonJob is one job in canonical form: translated so the instance's
// earliest start is zero, stripped of its ID. Two jobs with equal
// CanonJob values are interchangeable in any schedule.
type CanonJob struct {
	Start, End     int64
	Weight, Demand int64
}

func (c CanonJob) less(o CanonJob) bool { return compareCanon(c, o) < 0 }

// compareCanon is the canonical order: by start, end, weight, demand.
// Like job.ByStart's comparator it stops at the first key that differs.
func compareCanon(a, b CanonJob) int {
	switch {
	case a.Start != b.Start:
		return cmp.Compare(a.Start, b.Start)
	case a.End != b.End:
		return cmp.Compare(a.End, b.End)
	case a.Weight != b.Weight:
		return cmp.Compare(a.Weight, b.Weight)
	}
	return cmp.Compare(a.Demand, b.Demand)
}

// Canonical returns the instance's canonical job sequence — sorted by
// (start, end, weight, demand) after translating the earliest start to
// zero — and the permutation mapping canonical positions back to
// instance positions: perm[k] is the index into in.Jobs of the job at
// canonical position k. Jobs with equal canonical tuples are
// interchangeable, so the tie-break among them (instance position) never
// affects the fingerprint or the validity of a remapped schedule.
func Canonical(in job.Instance) (jobs []CanonJob, perm []int) {
	return CanonicalByStart(in, job.ByStart(in.Jobs))
}

// CanonicalByStart is Canonical for a caller that holds
// ByStart(in.Jobs), which already orders the jobs by start, end and
// position. Only runs of equal (start, end) are sorted again, stably by
// weight and then demand, which gives Canonical's order with the same
// position tie-break. Translation keeps the start order unless it
// wraps, for times more than 2^63 apart; then the permutation is sorted
// stably on the translated times.
func CanonicalByStart(in job.Instance, order []int) (jobs []CanonJob, perm []int) {
	perm = slices.Clone(order)
	jobs = make([]CanonJob, len(perm))
	if len(perm) == 0 {
		return jobs, perm
	}
	origin := in.Jobs[perm[0]].Start()
	canon := func(p int) CanonJob {
		j := in.Jobs[p]
		return CanonJob{Start: j.Start() - origin, End: j.End() - origin, Weight: j.Weight, Demand: j.Demand}
	}
	byCanon := func(a, b int) int { return compareCanon(canon(a), canon(b)) }
	for lo := 0; lo < len(perm); {
		hi := lo + 1
		for hi < len(perm) && in.Jobs[perm[hi]].Interval == in.Jobs[perm[lo]].Interval {
			hi++
		}
		if hi-lo > 1 {
			slices.SortStableFunc(perm[lo:hi], byCanon)
		}
		lo = hi
	}
	wrapped := false
	for k, p := range perm {
		jobs[k] = canon(p)
		wrapped = wrapped || jobs[k].End < 0
	}
	if wrapped {
		slices.SortStableFunc(perm, byCanon)
		for k, p := range perm {
			jobs[k] = canon(p)
		}
	}
	return jobs, perm
}

// FingerprintCanon hashes an already-canonical job sequence together
// with the capacity g and a scope string (the pinned algorithm name, so
// solvers pinned to different algorithms never serve each other's
// schedules). The digest is hex SHA-256.
func FingerprintCanon(g int, jobs []CanonJob, scope string) string {
	h := sha256.New()
	h.Write([]byte(scope))
	h.Write([]byte{0})
	// Then the little-endian words g and len(jobs), and per job start,
	// end, weight and demand: one Write per job.
	var buf [32]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(g))
	binary.LittleEndian.PutUint64(buf[8:], uint64(len(jobs)))
	h.Write(buf[:16])
	for _, j := range jobs {
		binary.LittleEndian.PutUint64(buf[0:], uint64(j.Start))
		binary.LittleEndian.PutUint64(buf[8:], uint64(j.End))
		binary.LittleEndian.PutUint64(buf[16:], uint64(j.Weight))
		binary.LittleEndian.PutUint64(buf[24:], uint64(j.Demand))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Fingerprint returns the canonical-form fingerprint of an instance:
// equal exactly when two instances agree up to job order, job IDs and a
// uniform time translation.
func Fingerprint(in job.Instance) string {
	jobs, _ := Canonical(in)
	return FingerprintCanon(in.G, jobs, "")
}

// SymDiff returns the size of the symmetric difference of two canonical
// job multisets (both sorted, as Canonical returns them): the number of
// jobs present in one but not the other, counting multiplicity. The
// merge aborts early once the running count exceeds limit (limit < 0
// never aborts), returning a value > limit.
func SymDiff(a, b []CanonJob, limit int) int {
	diff := 0
	i, k := 0, 0
	for i < len(a) && k < len(b) {
		switch {
		case a[i] == b[k]:
			i++
			k++
		case a[i].less(b[k]):
			diff++
			i++
		default:
			diff++
			k++
		}
		if limit >= 0 && diff > limit {
			return diff
		}
	}
	return diff + (len(a) - i) + (len(b) - k)
}
