package journal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"syscall"
	"testing"
)

// memLog is a log file held in one byte slice, so a FileStore over it
// pays no fsync. Its writes stay within the capacity it is given, and
// it is never replayed.
type memLog struct{ b []byte }

func (l *memLog) Read([]byte) (int, error) { return 0, io.EOF }

func (l *memLog) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(l.b)) {
		return 0, io.EOF
	}
	n := copy(p, l.b[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (l *memLog) WriteAt(p []byte, off int64) (int, error) {
	if end := int(off) + len(p); end > len(l.b) {
		if end > cap(l.b) {
			return 0, fmt.Errorf("memLog: write past its capacity %d", cap(l.b))
		}
		l.b = l.b[:end]
	}
	return copy(l.b[off:], p), nil
}

func (l *memLog) Sync() error { return nil }

func (l *memLog) Truncate(size int64) error {
	l.b = l.b[:size]
	return nil
}

func (l *memLog) Close() error { return nil }

// TestFileStoreRetainsNoRecords measures the heap a FileStore keeps for
// what it has acknowledged: 20 sessions of 1,000 events appended in
// flushes of 32 that interleave as concurrent streams' do, first on a
// log held in memory and then reopened from a file of the same bytes.
// Both times the store keeps at most 16 bytes per record, its byte
// ranges, where a copy of the records took about 350.
func TestFileStoreRetainsNoRecords(t *testing.T) {
	const sessions, events, flush, perRecord = 20, 1000, 32, 16
	all := make([][]Record, sessions)
	var enc bytes.Buffer
	records := 0
	for s := range all {
		recs, _, err := Certify(fmt.Sprintf("keep-%d", s), plainParams(), testArrivals(events))
		if err != nil {
			t.Fatal(err)
		}
		if err := EncodeRecords(&enc, recs); err != nil {
			t.Fatal(err)
		}
		all[s] = recs
		records += len(recs)
	}
	// retained reports the heap that open's store keeps, per record.
	retained := func(open func() *FileStore) (*FileStore, float64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		st := open()
		runtime.GC()
		runtime.ReadMemStats(&after)
		return st, float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(records)
	}
	readsBack := func(st *FileStore) {
		t.Helper()
		for _, s := range []int{0, sessions - 1} {
			if got, err := st.Read(all[s][0].Session); err != nil || !reflect.DeepEqual(got, all[s]) {
				t.Fatalf("Read(%s): %d of %d records, %v", all[s][0].Session, len(got), len(all[s]), err)
			}
		}
	}

	log := &memLog{b: make([]byte, 0, enc.Len())}
	enc = bytes.Buffer{}
	st, perAppended := retained(func() *FileStore {
		st := &FileStore{f: log}
		for lo := 0; lo < len(all[0]); lo += flush {
			for _, recs := range all {
				if err := st.Append(recs[0].Session, recs[lo:min(lo+flush, len(recs))]); err != nil {
					t.Fatal(err)
				}
			}
		}
		return st
	})
	readsBack(st)
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	if err := os.WriteFile(path, log.b, 0o644); err != nil {
		t.Fatal(err)
	}
	log = nil

	st, perOpened := retained(func() *FileStore {
		st, err := OpenFileStore(path)
		if err != nil {
			t.Fatal(err)
		}
		return st
	})
	defer st.Close()
	readsBack(st)
	t.Logf("%d records: %.1f B/record retained after the appends, %.1f after a reopen", records, perAppended, perOpened)
	if perAppended > perRecord || perOpened > perRecord {
		t.Fatalf("FileStore retains %.1f B/record after the appends and %.1f after a reopen, want at most %d",
			perAppended, perOpened, perRecord)
	}
}

// TestFileStoreInterleavedRanges alternates two sessions' flushes, with
// one session's failed append cut back between them. Each session's
// ranges skip the other's lines and the cut-back bytes, back-to-back
// flushes of one session share a range, a reopen rebuilds the same
// ranges, and Read returns exactly what was acknowledged before and
// after it.
func TestFileStoreInterleavedRanges(t *testing.T) {
	sa, _, err := Certify("sa", plainParams(), testArrivals(12))
	if err != nil {
		t.Fatal(err)
	}
	sb, _, err := Certify("sb", budgetParams(), testArrivals(12))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	st, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	log := &faultyLog{File: st.f.(*os.File)}
	st.f = log
	want := map[string][]Record{"sa": sa, "sb": sb}
	acked := map[string]int{}
	readsBack := func(st *FileStore) {
		t.Helper()
		for id, n := range acked {
			if got, err := st.Read(id); err != nil || !reflect.DeepEqual(got, want[id][:n]) {
				t.Fatalf("Read(%s): %d records, %v; want the %d acknowledged", id, len(got), err, n)
			}
		}
	}
	flush := func(id string, n int) {
		t.Helper()
		lo := acked[id]
		if err := st.Append(id, want[id][lo:lo+n]); err != nil {
			t.Fatalf("Append(%s, %d records): %v", id, n, err)
		}
		acked[id] = lo + n
		readsBack(st)
	}
	flush("sa", 3)
	flush("sa", 2) // adjoins sa's first flush
	flush("sb", 3)
	log.fault = "short"
	if err := st.Append("sb", sb[3:6]); err == nil {
		t.Fatal("Append with a short write succeeded")
	}
	readsBack(st)
	flush("sb", 3) // adjoins sb's first flush: the failed one is cut back
	flush("sa", 4)
	flush("sb", len(sb)-6)
	flush("sa", len(sa)-9)
	wantRanges := map[string]int{"sa": 3, "sb": 2}
	for id, n := range wantRanges {
		if got := len(st.ranges[id]); got != n {
			t.Errorf("%s has %d ranges, want %d", id, got, n)
		}
	}
	ranges := st.ranges
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = OpenFileStore(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st.Close()
	if !reflect.DeepEqual(st.ranges, ranges) {
		t.Fatalf("reopen rebuilt ranges %v, want the appends' %v", st.ranges, ranges)
	}
	readsBack(st)
	for id, recs := range want {
		if _, err := Verify(recs[:acked[id]]); err != nil {
			t.Fatalf("%s after reopen: %v", id, err)
		}
	}
}

// TestFileStoreReadFault fails one read of the log: Read returns the
// error wrapped, and the next Read and Append succeed. Once the store
// is closed, Read returns an error, not the records.
func TestFileStoreReadFault(t *testing.T) {
	sa, _, err := Certify("sa", plainParams(), testArrivals(6))
	if err != nil {
		t.Fatal(err)
	}
	st, err := OpenFileStore(filepath.Join(t.TempDir(), "journal.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	log := &faultyLog{File: st.f.(*os.File)}
	st.f = log
	if err := st.Append("sa", sa[:3]); err != nil {
		t.Fatal(err)
	}
	log.fault = "read"
	if got, err := st.Read("sa"); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Read with a read fault = %d records, %v; want EIO", len(got), err)
	}
	if got, err := st.Read("sa"); err != nil || !reflect.DeepEqual(got, sa[:3]) {
		t.Fatalf("Read after the fault: %d records, %v", len(got), err)
	}
	if err := st.Append("sa", sa[3:]); err != nil {
		t.Fatalf("Append after the fault: %v", err)
	}
	if got, err := st.Read("sa"); err != nil || !reflect.DeepEqual(got, sa) {
		t.Fatalf("Read after the append: %d records, %v", len(got), err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := st.Read("sa"); err == nil {
		t.Fatalf("Read after Close returned %d records and no error", len(got))
	}
}
