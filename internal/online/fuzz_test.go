package online

import (
	"cmp"
	"slices"
	"testing"

	"repro/internal/interval"
	"repro/internal/job"
)

// decodeArrivals turns bytes into a small arrival instance: byte 0 picks
// g in 1..4, byte 1 a budget (none when even, 4 × the byte when odd),
// and every further 3-byte group one job (start 0..127, length 1..48,
// weight 1..7). Jobs keep the byte order, which need not be start
// order. It returns false when the bytes encode no job.
func decodeArrivals(data []byte) (in job.Instance, budget int64, ok bool) {
	if len(data) < 5 {
		return job.Instance{}, 0, false
	}
	in.G = 1 + int(data[0]%4)
	if data[1]%2 == 1 {
		budget = 4 * int64(data[1])
	}
	for i := 2; i+2 < len(data) && len(in.Jobs) < 64; i += 3 {
		start := int64(data[i] % 128)
		j := job.New(len(in.Jobs), start, start+1+int64(data[i+1]%48))
		j.Weight = 1 + int64(data[i+2]%7)
		in.Jobs = append(in.Jobs, j)
	}
	return in, budget, true
}

// FuzzReplaySummary checks the Summary a replay's session keeps
// incrementally against postHocSummary, computed from the committed
// schedule alone, and its cost against Schedule.Cost, for every rigid
// strategy and for admission control under the decoded budget. The
// committed corpus holds a rejecting budgeted stream, equal starts and
// a single job.
//
//	go test -fuzz FuzzReplaySummary -fuzztime 30s -run '^$' ./internal/online
func FuzzReplaySummary(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in, budget, ok := decodeArrivals(data)
		if !ok {
			return
		}
		for _, st := range []Strategy{Naive(), FirstFit(), Buckets(), BestFit(), Budgeted(budget)} {
			res, err := Replay(in, st)
			if err != nil {
				t.Fatalf("%s on %v: %v", st.Name(), in, err)
			}
			if want := postHocSummary(res); res.Summary != want {
				t.Fatalf("%s on %v (budget %d): summary %+v, post-hoc %+v", st.Name(), in, budget, res.Summary, want)
			}
			if c := res.Schedule.Cost(); res.Cost != c {
				t.Fatalf("%s on %v: summary cost %d, schedule costs %d", st.Name(), in, res.Cost, c)
			}
		}
	})
}

// fitOp is one operation of a FuzzMachineFit run: a fit probe, or a
// placement, which probes first.
type fitOp struct {
	place bool
	iv    interval.Interval
}

// decodeMachineFit turns bytes into a capacity and a sequence of fit
// operations: byte 0 picks g in 1..5, and every further 3-byte group is
// one operation, a place when its first byte is odd and a probe
// otherwise, on the interval with start 0..127 (second byte) and length
// 0..47 (third byte). A zero length is an empty probe.
func decodeMachineFit(data []byte) (g int, ops []fitOp) {
	if len(data) == 0 {
		return 1, nil
	}
	g = 1 + int(data[0]%5)
	for i := 1; i+2 < len(data) && len(ops) < 128; i += 3 {
		start := int64(data[i+1] % 128)
		ops = append(ops, fitOp{place: data[i]%2 == 1, iv: interval.New(start, start+int64(data[i+2]%48))})
	}
	return g, ops
}

// refMachine is FuzzMachineFit's reference: each thread a plain list of
// its jobs in placement order, scanned with interval.Overlaps.
type refMachine struct {
	g       int
	threads [][]interval.Interval
}

// free returns the first thread in opening order that no job on it
// overlaps iv, len(threads) when none is free but a new thread may open,
// or -1 on a full machine.
func (r *refMachine) free(iv interval.Interval) int {
	for t, th := range r.threads {
		if !slices.ContainsFunc(th, iv.Overlaps) {
			return t
		}
	}
	if len(r.threads) < r.g {
		return len(r.threads)
	}
	return -1
}

// FuzzMachineFit checks Machine.Fits, and the harness's add, against
// refMachine: every probe's answer, and after each place the jobs of
// every thread in start order. A place skips an empty interval, because
// no harness places one. The committed corpus holds touching endpoints,
// an empty probe on a full machine, places before a thread's last job
// and out of start order, a full machine refusing, and probes on a
// machine with no jobs.
//
//	go test -fuzz FuzzMachineFit -fuzztime 30s -run '^$' ./internal/online
func FuzzMachineFit(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g, ops := decodeMachineFit(data)
		m := &Machine{g: g}
		ref := &refMachine{g: g}
		placed := 0
		for k, op := range ops {
			th := ref.free(op.iv)
			if got := m.Fits(op.iv); got != (th >= 0) {
				t.Fatalf("g %d op %d: Fits(%v) = %v on threads %v", g, k, op.iv, got, ref.threads)
			}
			if !op.place || op.iv.Empty() {
				continue
			}
			if got := m.add(op.iv); got != (th >= 0) {
				t.Fatalf("g %d op %d: add(%v) = %v on threads %v", g, k, op.iv, got, ref.threads)
			}
			if th < 0 {
				continue
			}
			if th == len(ref.threads) {
				ref.threads = append(ref.threads, nil)
			}
			ref.threads[th] = append(ref.threads[th], op.iv)
			placed++
			if len(m.threads) != len(ref.threads) || m.Jobs() != placed {
				t.Fatalf("g %d op %d: %d threads and %d jobs, want %d and %d", g, k, len(m.threads), m.Jobs(), len(ref.threads), placed)
			}
			for i, jobs := range ref.threads {
				want := slices.Clone(jobs)
				slices.SortFunc(want, func(a, b interval.Interval) int { return cmp.Compare(a.Start, b.Start) })
				if !slices.Equal(m.threads[i], want) {
					t.Fatalf("g %d op %d: thread %d holds %v, want %v", g, k, i, m.threads[i], want)
				}
			}
		}
	})
}
