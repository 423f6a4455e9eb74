package journal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/workload"
)

// benchSession journals one WeightedArrivals session of n arrivals at
// g = 4, under online-budget at 1.5 × its Observation 2.1 bound (which
// makes it reject) when budgeted, else under online-bestfit.
func benchSession(b *testing.B, id string, seed int64, n int, budgeted bool) []Record {
	b.Helper()
	in := workload.WeightedArrivals(seed, workload.Config{N: n, G: 4, MaxTime: int64(4 * n), MaxLen: 80})
	p := OpenParams{G: in.G, Strategy: "online-bestfit"}
	if budgeted {
		p = OpenParams{G: in.G, Strategy: "online-budget", Budget: in.LowerBound() * 3 / 2}
	}
	arrs := make([]Arrival, 0, n)
	for _, j := range in.SortedByStart().Jobs {
		arrs = append(arrs, ArrivalOf(j))
	}
	recs, _, err := Certify(id, p, arrs)
	if err != nil {
		b.Fatal(err)
	}
	return recs
}

// BenchmarkFileStoreOpen times the boot replay of a log shaped like the
// one a restarted busyd -journal replays: 20 closed sessions of 1,000
// events each, every other one budgeted.
func BenchmarkFileStoreOpen(b *testing.B) {
	path := filepath.Join(b.TempDir(), "journal.ndjson")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	records := 0
	for s := range 20 {
		recs := benchSession(b, fmt.Sprintf("boot-%d", s), int64(s+1), 1000, s%2 == 1)
		if err := EncodeRecords(f, recs); err != nil {
			b.Fatal(err)
		}
		records += len(recs)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		st, err := OpenFileStore(path)
		if err != nil {
			b.Fatal(err)
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*records), "us/record")
}

// BenchmarkFileStoreRead times what a resume, a journal fetch or a
// refused reopen costs the store: reading one 2,000-event session back
// from a log of 20 such sessions, whose flushes of 32 records
// interleave as concurrent streams write them.
func BenchmarkFileStoreRead(b *testing.B) {
	const sessions, events, flush = 20, 2000, 32
	path := filepath.Join(b.TempDir(), "journal.ndjson")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	all := make([][]Record, sessions)
	for s := range all {
		all[s] = benchSession(b, fmt.Sprintf("read-%d", s), int64(s+1), events, s%2 == 1)
	}
	for lo := 0; lo < len(all[0]); lo += flush {
		for _, recs := range all {
			if err := EncodeRecords(f, recs[lo:min(lo+flush, len(recs))]); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	st, err := OpenFileStore(path)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	want := len(all[sessions/2])
	b.ReportAllocs()
	for b.Loop() {
		recs, err := st.Read(fmt.Sprintf("read-%d", sessions/2))
		if err != nil || len(recs) != want {
			b.Fatalf("Read: %d of %d records, %v", len(recs), want, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N*want), "us/record")
}

// nullLog is a log file that keeps nothing and syncs at no cost, so a
// FileStore over it times the store's own work per append.
type nullLog struct{}

func (nullLog) Read([]byte) (int, error)               { return 0, io.EOF }
func (nullLog) ReadAt([]byte, int64) (int, error)      { return 0, io.EOF }
func (nullLog) WriteAt(p []byte, _ int64) (int, error) { return len(p), nil }
func (nullLog) Sync() error                            { return nil }
func (nullLog) Truncate(int64) error                   { return nil }
func (nullLog) Close() error                           { return nil }

// BenchmarkWriterStageCommit times what a stream flush costs the
// journal: 2,000 events of a budgeted session staged (sealed) and
// committed to a FileStore in flushes of 32, as a served session of
// windowed arrivals commits them. The placements are computed before
// the timer starts.
func BenchmarkWriterStageCommit(b *testing.B) {
	const events, flush = 2000, 32
	recs := benchSession(b, "stage", 1, events, true)
	p := *recs[0].Open
	b.ReportAllocs()
	for b.Loop() {
		st := &FileStore{f: nullLog{}}
		w, err := NewWriter(st, "stage", p)
		if err != nil {
			b.Fatal(err)
		}
		for i, rec := range recs[1 : events+1] {
			if _, err := w.StageEvent(*rec.Arrival, *rec.Event); err != nil {
				b.Fatal(err)
			}
			if (i+1)%flush == 0 {
				if err := w.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := w.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N*events), "us/event")
}
