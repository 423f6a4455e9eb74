package journal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
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
	return sortedIDs(s.ids), nil
}

// sortedIDs returns a sorted copy of a store's session ids.
func sortedIDs(ids []string) []string {
	out := make([]string, len(ids))
	copy(out, ids)
	sort.Strings(out)
	return out
}

// Close implements Store.
func (s *MemStore) Close() error { return nil }

// FileStore is the crash-safe single-file Store: every session's
// records interleave in one NDJSON append log, one write at the log's
// end + fsync per Append. It holds no records in memory, only where each
// session's lines lie in the log, as byte ranges; Read reads those
// ranges back and decodes them as the boot replay does. Opening the
// store replays the file to rebuild the ranges; a torn final line (the
// classic crash artifact of an append in flight) is truncated away,
// while corruption anywhere before it is an error — bytes the store once
// acknowledged must never silently disappear. A failed append is
// truncated away at once, so the next session's records never land
// behind a torn line.
type FileStore struct {
	mu sync.Mutex
	f  logFile
	// size is the log's length: every acknowledged record, nothing
	// else. Appends write at size, and a failed one is cut back to it,
	// so no acknowledged byte ever moves.
	size int64
	// stuck is set when a failed append could not be cut back: the log
	// may end in bytes nobody acknowledged, so nothing may follow them.
	stuck error
	// ranges holds each session's lines in the log as byte ranges in
	// append order, adjacent ranges merged; ids lists the sessions in
	// first-append order.
	ranges map[string][]byteRange
	ids    []string
}

// byteRange is n bytes of the log from off: whole lines of one session.
type byteRange struct{ off, n int64 }

// errClosed reports a call on a closed FileStore.
var errClosed = errors.New("journal: store is closed")

// logFile is what FileStore calls on its log file; *os.File is the
// implementation, and tests substitute one that fails on demand.
type logFile interface {
	io.Reader   // the replay at open
	io.ReaderAt // Read
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
	st := &FileStore{f: f}
	if err := st.load(); err != nil {
		// Nothing has been written through this descriptor; the load
		// error is the one the caller needs.
		//lint:ignore busylint/errdrop abandoning a read-only replay descriptor after a failed load; no write can be lost
		f.Close()
		return nil, err
	}
	return st, nil
}

// load replays the log into the session index, truncating a torn
// trailing line and rejecting interior corruption. It reads the log in
// one call, into a buffer sized from the file, and decodes every line
// where it lies, keeping only its range.
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
	keep, err := decodeLines(data, func(rec Record, start, end int) {
		s.note(rec.Session, int64(start), int64(end-start))
	})
	// A torn trailing write is a last line with no newline, or with
	// partial JSON before one; a line that fails before it is corruption.
	if nl := bytes.IndexByte(data[keep:], '\n'); err != nil && nl >= 0 && keep+nl+1 < len(data) {
		return corruptAt(int64(keep), err)
	}
	if keep != len(data) {
		if err := s.f.Truncate(int64(keep)); err != nil {
			return fmt.Errorf("journal: truncating torn record: %w", err)
		}
	}
	s.size = int64(keep)
	return nil
}

// corruptAt reports the log line at byte off that does not decode.
func corruptAt(off int64, err error) error {
	return fmt.Errorf("journal: store corrupted at byte %d: %v", off, err)
}

// note files the log's n bytes from off, whole lines of session, as the
// session's next range, merged into its last one where they adjoin.
func (s *FileStore) note(session string, off, n int64) {
	if s.ranges == nil {
		s.ranges = map[string][]byteRange{}
	}
	rs, ok := s.ranges[session]
	if !ok {
		s.ids = append(s.ids, session)
	}
	if k := len(rs) - 1; k >= 0 && safemath.SatAdd(rs[k].off, rs[k].n) == off {
		rs[k].n = safemath.SatAdd(rs[k].n, n)
	} else {
		s.ranges[session] = append(rs, byteRange{off, n})
	}
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
		return errClosed
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
	s.note(session, s.size, int64(len(b)))
	s.size = safemath.SatAdd(s.size, int64(len(b)))
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

// Read implements Store. It copies the session's ranges under the lock
// and reads and decodes them outside it: appends only add bytes past
// every range, and a cut-back only removes bytes past them.
func (s *FileStore) Read(session string) ([]Record, error) {
	s.mu.Lock()
	f, ranges := s.f, slices.Clone(s.ranges[session])
	s.mu.Unlock()
	if f == nil {
		return nil, errClosed
	}
	if len(ranges) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrUnknownSession, session)
	}
	var recs []Record
	var buf []byte
	for _, r := range ranges {
		buf = slices.Grow(buf[:0], int(r.n))[:r.n]
		if n, err := f.ReadAt(buf, r.off); n < len(buf) {
			return nil, fmt.Errorf("journal: reading session %s at byte %d: %w", session, r.off, err)
		}
		n, err := decodeLines(buf, func(rec Record, _, _ int) { recs = append(recs, rec) })
		if err != nil {
			return nil, corruptAt(safemath.SatAdd(r.off, int64(n)), err)
		}
	}
	return recs, nil
}

// Sessions implements Store.
func (s *FileStore) Sessions() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sortedIDs(s.ids), nil
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
