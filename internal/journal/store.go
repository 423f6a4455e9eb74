package journal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"repro/internal/safemath"
)

// ErrUnknownSession reports a Read of a session the store has no
// records for.
var ErrUnknownSession = errors.New("journal: unknown session")

// Store is the persistence boundary of the journal. Append must make
// the records durable before returning — the serving layer acknowledges
// an arrival to the client only after its record is appended, so
// whatever a client saw is guaranteed to be replayable after a crash.
// Implementations must be safe for concurrent use by multiple sessions.
type Store interface {
	// Append adds records to the session's log, in order, durably.
	// Every record's Session field must equal session.
	Append(session string, recs []Record) error
	// Read returns the session's full record sequence in append order,
	// or ErrUnknownSession.
	Read(session string) ([]Record, error)
	// Sessions lists every session with at least one record, sorted.
	Sessions() ([]string, error)
	// Close releases any underlying resources.
	Close() error
}

// MemStore is the in-memory Store: the default for busyd without a
// journal path, and the workhorse for tests. Records survive as long as
// the process does — optionally bounded by a closed-session retention
// cap, because a long-lived daemon otherwise accumulates every finished
// stream forever (each closed session kept its full record slice with no
// eviction path).
type MemStore struct {
	mu       sync.Mutex
	sessions map[string][]Record
	ids      []string // first-append order; sorted on listing

	// maxClosed caps retained closed sessions (0 = unbounded). closed is
	// the eviction queue in close order: when a KindClose record lands and
	// the cap is exceeded, the oldest-closed session is dropped entirely.
	// Active (never-closed) sessions are never evicted — they may still be
	// resumed.
	maxClosed int
	closed    []string
}

// NewMemStore returns an empty in-memory store with unbounded retention.
func NewMemStore() *MemStore {
	return &MemStore{sessions: map[string][]Record{}}
}

// NewMemStoreWithRetention returns an in-memory store that retains at
// most maxClosed closed sessions, evicting the oldest-closed first.
// Sessions that have not seen a close record are never evicted.
// maxClosed <= 0 means unbounded (same as NewMemStore).
func NewMemStoreWithRetention(maxClosed int) *MemStore {
	if maxClosed < 0 {
		maxClosed = 0
	}
	return &MemStore{sessions: map[string][]Record{}, maxClosed: maxClosed}
}

// Append implements Store.
func (s *MemStore) Append(session string, recs []Record) error {
	if err := checkOwnership(session, recs); err != nil {
		return err
	}
	s.add(session, recs)
	return nil
}

// add files recs at the end of session's records, applying retention,
// without checking that they belong to it: Append checks first, and
// FileStore's index takes only what its own log holds.
func (s *MemStore) add(session string, recs []Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.sessions[session]; !ok {
		s.ids = append(s.ids, session)
	}
	s.sessions[session] = append(s.sessions[session], recs...)
	if s.maxClosed > 0 {
		for i := range recs {
			if recs[i].Kind == KindClose {
				s.closed = append(s.closed, session)
				break
			}
		}
		for len(s.closed) > s.maxClosed {
			victim := s.closed[0]
			s.closed = s.closed[1:]
			delete(s.sessions, victim)
			for i, id := range s.ids {
				if id == victim {
					s.ids = append(s.ids[:i], s.ids[i+1:]...)
					break
				}
			}
		}
	}
}

// Read implements Store.
func (s *MemStore) Read(session string) ([]Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs, ok := s.sessions[session]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownSession, session)
	}
	out := make([]Record, len(recs))
	copy(out, recs)
	return out, nil
}

// Sessions implements Store. The listing is sorted so callers iterate
// deterministically (the detreplay discipline: no map-order dependence —
// the ids ride a slice maintained on first append, never a map range).
func (s *MemStore) Sessions() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.ids))
	copy(out, s.ids)
	sort.Strings(out)
	return out, nil
}

// Close implements Store.
func (s *MemStore) Close() error { return nil }

// FileStore is the crash-safe single-file Store: every session's
// records interleave in one NDJSON append log, one write at the log's
// end + fsync per Append. Opening the store replays the file into an
// in-memory per-session mirror; a torn final line (the classic crash
// artifact of an append in flight) is truncated away, while corruption
// anywhere before it is an error — bytes the store once acknowledged
// must never silently disappear. A failed append is truncated away at
// once, so the next session's records never land behind a torn line.
type FileStore struct {
	mu sync.Mutex
	f  logFile
	// size is the log's length: every acknowledged record, nothing
	// else. Appends write at size, and a failed one is cut back to it.
	size int64
	// stuck is set when a failed append could not be cut back: the log
	// may end in bytes nobody acknowledged, so nothing may follow them.
	stuck error
	// index holds every acknowledged record and serves Read and
	// Sessions. Its lock nests inside mu, never the reverse. It keeps
	// every session: retention is off.
	index *MemStore
}

// logFile is what FileStore calls on its log file; *os.File is the
// implementation, and tests substitute one that fails on demand.
type logFile interface {
	io.Reader // the replay at open
	io.WriterAt
	Sync() error
	Truncate(size int64) error
	Close() error
}

// OpenFileStore opens (creating if needed) the append log at path and
// rebuilds the session index from its contents.
func OpenFileStore(path string) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: opening store: %w", err)
	}
	st := &FileStore{f: f, index: NewMemStore()}
	if err := st.load(); err != nil {
		// Nothing has been written through this descriptor; the load
		// error is the one the caller needs.
		//lint:ignore busylint/errdrop abandoning a read-only replay descriptor after a failed load; no write can be lost
		f.Close()
		return nil, err
	}
	return st, nil
}

// load replays the log into the session mirror, truncating a torn
// trailing line and rejecting interior corruption. It reads the log in
// one call, into a buffer sized from the file, and decodes every line
// where it lies.
func (s *FileStore) load() error {
	var buf bytes.Buffer
	if f, ok := s.f.(*os.File); ok {
		if fi, err := f.Stat(); err == nil && int64(int(fi.Size())) == fi.Size() {
			buf.Grow(int(fi.Size()) + bytes.MinRead)
		}
	}
	if _, err := buf.ReadFrom(s.f); err != nil {
		return fmt.Errorf("journal: reading store: %w", err)
	}
	data := buf.Bytes()
	var scratch []byte
	keep := 0
	for keep < len(data) {
		nl := bytes.IndexByte(data[keep:], '\n')
		if nl < 0 {
			break // torn trailing write: no newline ever made it to disk
		}
		rec, err := decodeRecord(data[keep:keep+nl+1], 0, &scratch)
		if err != nil {
			if keep+nl+1 == len(data) {
				break // torn trailing write: partial JSON with a newline
			}
			return fmt.Errorf("journal: store corrupted at byte %d: %v", keep, err)
		}
		s.index.add(rec.Session, []Record{rec})
		keep += nl + 1
	}
	if keep != len(data) {
		if err := s.f.Truncate(int64(keep)); err != nil {
			return fmt.Errorf("journal: truncating torn record: %w", err)
		}
	}
	s.size = int64(keep)
	return nil
}

// appendBufs holds the buffers Append encodes into.
var appendBufs = sync.Pool{New: func() any { return new([]byte) }}

// Append implements Store: one buffered write of every record, then a
// single fsync, which a stream session pays once per flush.
func (s *FileStore) Append(session string, recs []Record) error {
	if err := checkOwnership(session, recs); err != nil {
		return err
	}
	if len(recs) == 0 {
		return nil
	}
	bp := appendBufs.Get().(*[]byte)
	defer appendBufs.Put(bp)
	b := (*bp)[:0]
	for i := range recs {
		var err error
		if b, err = appendLine(b, &recs[i]); err != nil {
			return fmt.Errorf("journal: encoding append: %v", err)
		}
	}
	*bp = b
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errors.New("journal: store is closed")
	}
	if s.stuck != nil {
		return fmt.Errorf("journal: store refuses appends after a failed one could not be cut back: %w", s.stuck)
	}
	if _, err := s.f.WriteAt(b, s.size); err != nil {
		return s.cutBack(fmt.Errorf("journal: appending: %w", err))
	}
	if err := s.f.Sync(); err != nil {
		return s.cutBack(fmt.Errorf("journal: syncing: %w", err))
	}
	s.size = safemath.SatAdd(s.size, int64(len(b)))
	s.index.add(session, recs)
	return nil
}

// cutBack truncates the log to its acknowledged length after the
// append that failed with err, whose bytes may be partly on disk; a
// fsync error leaves the whole append there, unacknowledged. If the
// truncation fails too, the store refuses every later append.
func (s *FileStore) cutBack(err error) error {
	if terr := s.f.Truncate(s.size); terr != nil {
		s.stuck = terr
		return fmt.Errorf("%w; cutting the log back to %d bytes: %w", err, s.size, terr)
	}
	return err
}

// Read implements Store.
func (s *FileStore) Read(session string) ([]Record, error) { return s.index.Read(session) }

// Sessions implements Store.
func (s *FileStore) Sessions() ([]string, error) { return s.index.Sessions() }

// Close implements Store.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}

// checkOwnership rejects records filed under the wrong session — a
// programming error that would corrupt both sessions' chains.
func checkOwnership(session string, recs []Record) error {
	if !ValidSessionID(session) {
		return fmt.Errorf("journal: invalid session id %q", session)
	}
	for i := range recs {
		if recs[i].Session != session {
			return fmt.Errorf("journal: record %d belongs to session %q, not %q", recs[i].Seq, recs[i].Session, session)
		}
	}
	return nil
}
