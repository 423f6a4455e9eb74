package online

import (
	"testing"

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
