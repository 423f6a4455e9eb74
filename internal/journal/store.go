package journal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
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
	return nil
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
// records interleave in one NDJSON append log, O_APPEND + fsync per
// Append. Opening the store replays the file into an in-memory
// per-session mirror; a torn final line (the classic crash artifact of
// an append in flight) is truncated away, while corruption anywhere
// before it is an error — bytes the store once acknowledged must never
// silently disappear.
type FileStore struct {
	mu       sync.Mutex
	f        *os.File
	sessions map[string][]Record
	ids      []string // first-append order; sorted on listing
}

// OpenFileStore opens (creating if needed) the append log at path and
// rebuilds the session index from its contents.
func OpenFileStore(path string) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: opening store: %w", err)
	}
	st := &FileStore{f: f, sessions: map[string][]Record{}}
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
// trailing line and rejecting interior corruption.
func (s *FileStore) load() error {
	data, err := io.ReadAll(s.f)
	if err != nil {
		return fmt.Errorf("journal: reading store: %w", err)
	}
	keep := 0
	for keep < len(data) {
		nl := bytes.IndexByte(data[keep:], '\n')
		if nl < 0 {
			break // torn trailing write: no newline ever made it to disk
		}
		line := data[keep : keep+nl+1]
		recs, err := DecodeRecords(bytes.NewReader(line))
		if err != nil || len(recs) != 1 {
			if keep+nl+1 == len(data) {
				break // torn trailing write: partial JSON with a newline
			}
			return fmt.Errorf("journal: store corrupted at byte %d: %v", keep, err)
		}
		if _, ok := s.sessions[recs[0].Session]; !ok {
			s.ids = append(s.ids, recs[0].Session)
		}
		s.sessions[recs[0].Session] = append(s.sessions[recs[0].Session], recs[0])
		keep += nl + 1
	}
	if keep != len(data) {
		if err := s.f.Truncate(int64(keep)); err != nil {
			return fmt.Errorf("journal: truncating torn record: %w", err)
		}
	}
	if _, err := s.f.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("journal: seeking store end: %w", err)
	}
	return nil
}

// Append implements Store: one buffered write of every record, then a
// single fsync, which a stream session pays once per flush.
func (s *FileStore) Append(session string, recs []Record) error {
	if err := checkOwnership(session, recs); err != nil {
		return err
	}
	if len(recs) == 0 {
		return nil
	}
	var buf bytes.Buffer
	if err := EncodeRecords(&buf, recs); err != nil {
		return fmt.Errorf("journal: encoding append: %v", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errors.New("journal: store is closed")
	}
	if _, err := s.f.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("journal: appending: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("journal: syncing: %w", err)
	}
	if _, ok := s.sessions[session]; !ok {
		s.ids = append(s.ids, session)
	}
	s.sessions[session] = append(s.sessions[session], recs...)
	return nil
}

// Read implements Store.
func (s *FileStore) Read(session string) ([]Record, error) {
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

// Sessions implements Store.
func (s *FileStore) Sessions() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.ids))
	copy(out, s.ids)
	sort.Strings(out)
	return out, nil
}

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
