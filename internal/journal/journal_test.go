package journal

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// testArrivals builds a deterministic non-decreasing arrival sequence
// with mixed overlaps and weights.
func testArrivals(n int) []Arrival {
	arrs := make([]Arrival, n)
	for i := range arrs {
		start := int64(3 * i)
		length := int64(5 + (i*i)%11)
		arrs[i] = Arrival{ID: i, Start: start, End: start + length, Weight: int64(1 + i%3)}
	}
	return arrs
}

func plainParams() OpenParams {
	return OpenParams{G: 3, Strategy: "online-bestfit"}
}

func budgetParams() OpenParams {
	return OpenParams{G: 2, Strategy: "online-budget", Budget: 40}
}

func TestCertifyRoundTrip(t *testing.T) {
	for name, p := range map[string]OpenParams{"plain": plainParams(), "budget": budgetParams()} {
		t.Run(name, func(t *testing.T) {
			arrs := testArrivals(9)
			recs, cert, err := Certify("s-"+name, p, arrs)
			if err != nil {
				t.Fatalf("Certify: %v", err)
			}
			if cert.Arrivals != len(arrs) || cert.Entries != len(arrs)+2 {
				t.Fatalf("certificate counts %d/%d, want %d/%d", cert.Arrivals, cert.Entries, len(arrs), len(arrs)+2)
			}
			if cert.G != p.G || cert.Budget != p.Budget || cert.Strategy != p.Strategy {
				t.Fatalf("certificate params %+v do not echo %+v", cert, p)
			}
			if cert.Chain != recs[len(recs)-1].Hash {
				t.Fatalf("certificate chain %s is not the tail hash %s", cert.Chain, recs[len(recs)-1].Hash)
			}
			if cert.Summary.Arrivals != len(arrs) {
				t.Fatalf("summary arrivals %d, want %d", cert.Summary.Arrivals, len(arrs))
			}
			if p.Budget > 0 && cert.Summary.Rejected == 0 {
				t.Fatalf("budgeted session rejected nothing; want admission-control rejections in the journal")
			}

			// The encoded journal must survive a byte round trip.
			var buf bytes.Buffer
			if err := EncodeRecords(&buf, recs); err != nil {
				t.Fatalf("EncodeRecords: %v", err)
			}
			back, err := DecodeRecords(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("DecodeRecords: %v", err)
			}
			cert2, err := Verify(back)
			if err != nil {
				t.Fatalf("Verify after round trip: %v", err)
			}
			if cert2 != cert {
				t.Fatalf("round-tripped certificate %+v != %+v", cert2, cert)
			}
		})
	}
}

// TestVerifyRejectsSingleByteCorruption is the acceptance criterion in
// its sharpest form: flip every single byte of the encoded journal, one
// at a time, and require every flip to be rejected — by the JSON
// decoder, the hash chain, or the replay comparison.
func TestVerifyRejectsSingleByteCorruption(t *testing.T) {
	for name, p := range map[string]OpenParams{"plain": plainParams(), "budget": budgetParams()} {
		t.Run(name, func(t *testing.T) {
			recs, _, err := Certify("corrupt-"+name, p, testArrivals(6))
			if err != nil {
				t.Fatalf("Certify: %v", err)
			}
			var buf bytes.Buffer
			if err := EncodeRecords(&buf, recs); err != nil {
				t.Fatalf("EncodeRecords: %v", err)
			}
			raw := buf.Bytes()
			for i := range raw {
				mutated := bytes.Clone(raw)
				mutated[i] ^= 0x01
				got, err := DecodeRecords(bytes.NewReader(mutated))
				if err != nil {
					continue // rejected at the decode layer
				}
				if _, err := Verify(got); err == nil {
					t.Fatalf("flipping byte %d (%q -> %q) went undetected", i, raw[i], mutated[i])
				}
			}
		})
	}
}

func TestVerifyRejectsTruncation(t *testing.T) {
	recs, _, err := Certify("trunc", plainParams(), testArrivals(5))
	if err != nil {
		t.Fatalf("Certify: %v", err)
	}
	for n := 0; n < len(recs); n++ {
		if _, err := Verify(recs[:n]); err == nil {
			t.Fatalf("Verify accepted a journal truncated to %d of %d records", n, len(recs))
		}
	}
	// Truncating records off the tail leaves a valid-but-unclosed chain;
	// Replay must accept it (that is what resume does) while Verify
	// refuses to certify it.
	if _, err := Replay(recs[:3]); err != nil {
		t.Fatalf("Replay rejected a valid unclosed prefix: %v", err)
	}
}

func TestVerifyRejectsRecordSurgery(t *testing.T) {
	recs, _, err := Certify("surgery", plainParams(), testArrivals(5))
	if err != nil {
		t.Fatalf("Certify: %v", err)
	}
	// Dropping an interior record, swapping two records, and replaying a
	// record twice all break the chain even though every individual
	// record still carries a valid seal.
	drop := append(append([]Record{}, recs[:2]...), recs[3:]...)
	if _, err := Verify(drop); err == nil {
		t.Fatal("Verify accepted a journal with an interior record dropped")
	}
	swapped := append([]Record{}, recs...)
	swapped[2], swapped[3] = swapped[3], swapped[2]
	if _, err := Verify(swapped); err == nil {
		t.Fatal("Verify accepted a journal with two records swapped")
	}
	doubled := append(append([]Record{}, recs[:3]...), recs[2:]...)
	if _, err := Verify(doubled); err == nil {
		t.Fatal("Verify accepted a journal with a record replayed twice")
	}
}

// TestResumeMatchesUninterrupted is the resume contract at the journal
// layer: interrupt a session after k arrivals, rebuild it by replay,
// continue with the remaining arrivals, and require the full journal —
// every byte, every hash — to equal the uninterrupted run's.
func TestResumeMatchesUninterrupted(t *testing.T) {
	for name, p := range map[string]OpenParams{"plain": plainParams(), "budget": budgetParams()} {
		t.Run(name, func(t *testing.T) {
			arrs := testArrivals(12)
			whole, wholeCert, err := Certify("resume-"+name, p, arrs)
			if err != nil {
				t.Fatalf("Certify: %v", err)
			}

			for k := 0; k <= len(arrs); k++ {
				store := NewMemStore()
				w, err := NewWriter(store, "resume-"+name, p)
				if err != nil {
					t.Fatalf("NewWriter: %v", err)
				}
				sess, _, err := SessionFor(p)
				if err != nil {
					t.Fatalf("SessionFor: %v", err)
				}
				for _, a := range arrs[:k] {
					j, err := a.Job()
					if err != nil {
						t.Fatalf("Job: %v", err)
					}
					ev, err := sess.Offer(j)
					if err != nil {
						t.Fatalf("Offer: %v", err)
					}
					if _, err := w.StageEvent(a, ev); err != nil {
						t.Fatalf("StageEvent: %v", err)
					}
				}
				if err := w.Commit(); err != nil {
					t.Fatalf("Commit: %v", err)
				}
				// The interrupted writer is dropped here — the crash.

				recs, err := store.Read("resume-" + name)
				if err != nil {
					t.Fatalf("Read: %v", err)
				}
				state, err := Replay(recs)
				if err != nil {
					t.Fatalf("Replay after %d arrivals: %v", k, err)
				}
				if state.Arrivals != k || state.Session.Arrivals() != k {
					t.Fatalf("replayed %d arrivals, session reports %d, want %d", state.Arrivals, state.Session.Arrivals(), k)
				}
				w2, err := ResumeWriter(store, state)
				if err != nil {
					t.Fatalf("ResumeWriter: %v", err)
				}
				for _, a := range arrs[k:] {
					j, err := a.Job()
					if err != nil {
						t.Fatalf("Job: %v", err)
					}
					ev, err := state.Session.Offer(j)
					if err != nil {
						t.Fatalf("Offer after resume: %v", err)
					}
					if _, err := w2.StageEvent(a, ev); err != nil {
						t.Fatalf("StageEvent after resume: %v", err)
					}
				}
				chain, err := w2.Close(state.Session.Summary())
				if err != nil {
					t.Fatalf("Close after resume: %v", err)
				}
				if chain != wholeCert.Chain {
					t.Fatalf("resume at %d: chain %s != uninterrupted %s", k, chain, wholeCert.Chain)
				}
				got, err := store.Read("resume-" + name)
				if err != nil {
					t.Fatalf("Read: %v", err)
				}
				var gotB, wantB bytes.Buffer
				if err := EncodeRecords(&gotB, got); err != nil {
					t.Fatalf("EncodeRecords: %v", err)
				}
				if err := EncodeRecords(&wantB, whole); err != nil {
					t.Fatalf("EncodeRecords: %v", err)
				}
				if !bytes.Equal(gotB.Bytes(), wantB.Bytes()) {
					t.Fatalf("resume at %d: journal bytes diverge from the uninterrupted run", k)
				}
			}
		})
	}
}

func TestWriterRefusesExistingSession(t *testing.T) {
	store := NewMemStore()
	if _, err := NewWriter(store, "dup", plainParams()); err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	if _, err := NewWriter(store, "dup", plainParams()); !errors.Is(err, ErrSessionExists) {
		t.Fatalf("second NewWriter: got %v, want ErrSessionExists", err)
	}
}

func TestSessionForRejectsBadParams(t *testing.T) {
	cases := map[string]OpenParams{
		"no strategy":       {G: 2},
		"unknown strategy":  {G: 2, Strategy: "no-such-strategy"},
		"bad g":             {G: 0, Strategy: "online-bestfit"},
		"negative budget":   {G: 2, Strategy: "online-budget", Budget: -1},
		"budget on plain":   {G: 2, Strategy: "online-bestfit", Budget: 10},
		"budgetless budget": {G: 2, Strategy: "online-budget"},
	}
	for name, p := range cases {
		if _, _, err := SessionFor(p); err == nil {
			t.Errorf("SessionFor(%s) accepted %+v", name, p)
		}
	}
}

func TestValidSessionID(t *testing.T) {
	for _, ok := range []string{"a", "A-b_c.9", strings.Repeat("x", 64)} {
		if !ValidSessionID(ok) {
			t.Errorf("ValidSessionID(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "a b", "a/b", "a\nb", strings.Repeat("x", 65), "ü"} {
		if ValidSessionID(bad) {
			t.Errorf("ValidSessionID(%q) = true", bad)
		}
	}
}

func TestDecodeRecordsRejectsTrailingGarbage(t *testing.T) {
	recs, _, err := Certify("garbage", plainParams(), testArrivals(2))
	if err != nil {
		t.Fatalf("Certify: %v", err)
	}
	var buf bytes.Buffer
	if err := EncodeRecords(&buf, recs); err != nil {
		t.Fatalf("EncodeRecords: %v", err)
	}
	buf.WriteString("{not json")
	if _, err := DecodeRecords(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("DecodeRecords accepted trailing garbage")
	}
}

func TestFileStoreDurabilityAndRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	recs, _, err := Certify("filed", plainParams(), testArrivals(4))
	if err != nil {
		t.Fatalf("Certify: %v", err)
	}

	st, err := OpenFileStore(path)
	if err != nil {
		t.Fatalf("OpenFileStore: %v", err)
	}
	if err := st.Append("filed", recs); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: the full session must come back and still verify.
	st, err = OpenFileStore(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got, err := st.Read("filed")
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if _, err := Verify(got); err != nil {
		t.Fatalf("Verify after reopen: %v", err)
	}
	sessions, err := st.Sessions()
	if err != nil || len(sessions) != 1 || sessions[0] != "filed" {
		t.Fatalf("Sessions() = %v, %v", sessions, err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// A torn trailing write — half a record, no newline — is the crash
	// artifact the store must recover from by truncation.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatalf("open for tearing: %v", err)
	}
	if _, err := f.WriteString(`{"session":"filed","seq":99,"ki`); err != nil {
		t.Fatalf("tear: %v", err)
	}
	f.Close()
	st, err = OpenFileStore(path)
	if err != nil {
		t.Fatalf("reopen after torn write: %v", err)
	}
	got, err = st.Read("filed")
	if err != nil {
		t.Fatalf("Read after torn write: %v", err)
	}
	if _, err := Verify(got); err != nil {
		t.Fatalf("Verify after torn-write recovery: %v", err)
	}
	st.Close()

	// Interior corruption is not recoverable and must refuse to load:
	// acknowledged bytes do not silently disappear.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	data[len(data)/2] = 0x00
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if _, err := OpenFileStore(path); err == nil {
		t.Fatal("OpenFileStore loaded a log with interior corruption")
	}
}

// faultyLog is a log file that fails on demand: the next WriteAt after
// a "short" or "enospc" fault writes part of its bytes and fails, the
// next Sync after an "fsync" fault fails, the next ReadAt after a
// "read" fault fails, and Truncate fails while truncErr is set.
type faultyLog struct {
	*os.File
	fault    string
	truncErr error
}

func (f *faultyLog) WriteAt(p []byte, off int64) (int, error) {
	fault := f.fault
	switch fault {
	case "short", "enospc":
		f.fault = ""
		n, err := f.File.WriteAt(p[:len(p)/2], off)
		if err != nil {
			return n, err
		}
		if fault == "short" {
			return n, io.ErrShortWrite
		}
		return n, syscall.ENOSPC
	}
	return f.File.WriteAt(p, off)
}

func (f *faultyLog) Sync() error {
	if f.fault == "fsync" {
		f.fault = ""
		return syscall.EIO
	}
	return f.File.Sync()
}

func (f *faultyLog) ReadAt(p []byte, off int64) (int, error) {
	if f.fault == "read" {
		f.fault = ""
		return 0, syscall.EIO
	}
	return f.File.ReadAt(p, off)
}

func (f *faultyLog) Truncate(size int64) error {
	if f.truncErr != nil {
		return f.truncErr
	}
	return f.File.Truncate(size)
}

// TestFileStoreFailedAppend injects a fault into one session's append
// between another session's: the failed append must leave no bytes
// behind, so after a reopen the other session reads back every record
// it was acknowledged (and verifies), and the faulted session keeps
// exactly its records from before the fault. Without the cut-back, a
// torn line swallows the next one-record append on reopen, a torn line
// followed by more records refuses to load, and an append whose fsync
// failed reappears on reopen although it was never acknowledged. When
// the cut-back itself fails, the store refuses every later append.
func TestFileStoreFailedAppend(t *testing.T) {
	sa, _, err := Certify("sa", plainParams(), testArrivals(6))
	if err != nil {
		t.Fatal(err)
	}
	sb, _, err := Certify("sb", budgetParams(), testArrivals(6))
	if err != nil {
		t.Fatal(err)
	}
	for _, fault := range []string{"short", "enospc", "fsync"} {
		t.Run(fault, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "journal.ndjson")
			st, err := OpenFileStore(path)
			if err != nil {
				t.Fatal(err)
			}
			log := &faultyLog{File: st.f.(*os.File)}
			st.f = log
			appendOK := func(session string, recs []Record) {
				t.Helper()
				if err := st.Append(session, recs); err != nil {
					t.Fatalf("Append(%s, %d records): %v", session, len(recs), err)
				}
			}
			appendOK("sa", sa[:2])
			appendOK("sb", sb[:2])
			log.fault = fault
			if err := st.Append("sb", sb[2:4]); err == nil {
				t.Fatalf("Append with a %s fault succeeded", fault)
			}
			appendOK("sa", sa[2:3]) // one record right behind the fault
			appendOK("sa", sa[3:5])
			appendOK("sa", sa[5:])
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			st, err = OpenFileStore(path)
			if err != nil {
				t.Fatalf("reopen after a %s fault: %v", fault, err)
			}
			defer st.Close()
			gotA, err := st.Read("sa")
			if err != nil {
				t.Fatal(err)
			}
			if len(gotA) != len(sa) {
				t.Fatalf("sa read back %d of its %d acknowledged records", len(gotA), len(sa))
			}
			if _, err := Verify(gotA); err != nil {
				t.Fatalf("sa after reopen: %v", err)
			}
			gotB, err := st.Read("sb")
			if err != nil {
				t.Fatal(err)
			}
			if len(gotB) != 2 || gotB[1].Hash != sb[1].Hash {
				t.Fatalf("sb read back %d records, want its 2 from before the fault", len(gotB))
			}
		})
	}

	t.Run("cut-back fails", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "journal.ndjson")
		st, err := OpenFileStore(path)
		if err != nil {
			t.Fatal(err)
		}
		log := &faultyLog{File: st.f.(*os.File)}
		st.f = log
		if err := st.Append("sa", sa[:2]); err != nil {
			t.Fatal(err)
		}
		log.fault, log.truncErr = "short", syscall.EIO
		if err := st.Append("sa", sa[2:3]); !errors.Is(err, io.ErrShortWrite) || !errors.Is(err, syscall.EIO) {
			t.Fatalf("Append = %v, want the write and the truncate errors", err)
		}
		log.truncErr = nil
		if err := st.Append("sb", sb[:1]); err == nil {
			t.Fatal("Append after a failed cut-back succeeded")
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		// The half record at the end is the crash artifact the next
		// open removes.
		st, err = OpenFileStore(path)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer st.Close()
		if ids, err := st.Sessions(); err != nil || len(ids) != 1 {
			t.Fatalf("Sessions() = %v, %v; want only sa", ids, err)
		}
		if got, err := st.Read("sa"); err != nil || len(got) != 2 {
			t.Fatalf("sa read back %d records (%v), want its 2 acknowledged ones", len(got), err)
		}
	})
}

func TestMemStoreRejectsForeignRecords(t *testing.T) {
	store := NewMemStore()
	err := store.Append("mine", []Record{{Session: "theirs"}})
	if err == nil {
		t.Fatal("Append accepted a record filed under the wrong session")
	}
}

// TestMemStoreRetention pins the closed-session retention cap: beyond
// the cap the oldest-closed session is evicted wholesale, while active
// (never-closed) sessions are immune no matter how old they are. The
// uncapped constructor must keep everything — the prior behavior, and
// still the right one for tests and short-lived processes.
func TestMemStoreRetention(t *testing.T) {
	closedRecords := func(session string) []Record {
		recs, _, err := Certify(session, plainParams(), testArrivals(3))
		if err != nil {
			t.Fatalf("Certify(%s): %v", session, err)
		}
		return recs
	}

	st := NewMemStoreWithRetention(2)

	// An active session appended before any closed one: records without
	// a close. It must survive every eviction below.
	activeRecs := closedRecords("s-active")
	if err := st.Append("s-active", activeRecs[:len(activeRecs)-1]); err != nil {
		t.Fatal(err)
	}

	for _, session := range []string{"s-c1", "s-c2", "s-c3", "s-c4"} {
		if err := st.Append(session, closedRecords(session)); err != nil {
			t.Fatal(err)
		}
	}

	got, err := st.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"s-active", "s-c3", "s-c4"}
	if len(got) != len(want) {
		t.Fatalf("Sessions() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sessions() = %v, want %v", got, want)
		}
	}
	if _, err := st.Read("s-c1"); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("evicted session read: %v, want ErrUnknownSession", err)
	}
	if recs, err := st.Read("s-active"); err != nil || len(recs) != len(activeRecs)-1 {
		t.Fatalf("active session: %d records, %v", len(recs), err)
	}

	// Closing the active session now makes it evictable like any other.
	if err := st.Append("s-active", activeRecs[len(activeRecs)-1:]); err != nil {
		t.Fatal(err)
	}
	if err := st.Append("s-c5", closedRecords("s-c5")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Read("s-c3"); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("s-c3 should be evicted after s-active closed: %v", err)
	}

	// The uncapped store never evicts.
	unbounded := NewMemStore()
	for _, session := range []string{"s-u1", "s-u2", "s-u3"} {
		if err := unbounded.Append(session, closedRecords(session)); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := unbounded.Sessions(); len(got) != 3 {
		t.Fatalf("unbounded store evicted: %v", got)
	}
}
