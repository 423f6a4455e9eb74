// Package journal is the durable write-ahead placement log behind
// /v1/stream: every session is an append-only sequence of hash-chained
// records — one open record fixing the session parameters, one event
// record per arrival (the arrival itself plus the placement the strategy
// committed), and one close record carrying the final report. Each
// record's hash covers the previous record's hash and the record's whole
// payload, so the last hash is a certificate of the entire stream: a
// verifier that replays the chain (Verify) re-derives every placement
// with the offline online harness and rejects any single-byte corruption.
//
// The journal is deliberately a deterministic function of the session
// parameters and the arrival sequence — records carry no wall-clock
// timestamps (busylint/detreplay forbids clock reads here, and the
// byte-equality contract between a resumed and an uninterrupted session
// depends on it: both must produce the identical chain). Queue/flush/
// solve timings are serving telemetry and live on the wire events, in
// /metrics and in the request log, never in the chain.
//
// Records persist through a small Store interface (MemStore for tests
// and ephemeral daemons, FileStore for a crash-safe single-file append
// log); a disconnected or killed session resumes by replaying its
// journal through Replay, which rebuilds the live online.Session
// state and hands back a Writer positioned at the chain's tail.
package journal

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/job"
	"repro/internal/online"
	"repro/internal/safemath"
)

// Record kinds, the "kind" discriminator of Record.
const (
	// KindOpen is the first record of every session: the parameters the
	// whole stream commits to.
	KindOpen = "open"
	// KindEvent records one arrival and the placement it received.
	KindEvent = "event"
	// KindClose is the final record: the session's closing report.
	KindClose = "close"
)

// genesisHex is the Prev of a session's open record: 32 zero bytes.
const genesisHex = "0000000000000000000000000000000000000000000000000000000000000000"

// maxSessionID bounds session identifiers; they appear in URLs, file
// contents and log lines.
const maxSessionID = 64

// ValidSessionID reports whether s is an acceptable session identifier:
// 1–64 characters from [A-Za-z0-9._-].
func ValidSessionID(s string) bool {
	if len(s) == 0 || len(s) > maxSessionID {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// OpenParams are the session parameters fixed by the open record; they
// seed the hash chain, so two sessions with the same id, parameters and
// arrivals produce byte-identical journals.
type OpenParams struct {
	// G is the machine capacity.
	G int `json:"g"`
	// Strategy is the canonical registered online strategy name.
	Strategy string `json:"strategy"`
	// Budget is the busy-time budget for admission-control strategies
	// (0 = none).
	Budget int64 `json:"budget,omitempty"`
}

// Arrival is the journaled form of one streamed arrival — the input side
// of an event record, sufficient to replay the placement.
type Arrival struct {
	ID     int   `json:"id"`
	Start  int64 `json:"start"`
	End    int64 `json:"end"`
	Weight int64 `json:"weight"`
}

// ArrivalOf records a job as an arrival.
func ArrivalOf(j job.Job) Arrival {
	return Arrival{ID: j.ID, Start: j.Start(), End: j.End(), Weight: j.Weight}
}

// Job decodes the arrival back into a job, validating the shape first:
// a corrupted or forged record must produce an error, never reach the
// panicking interval constructor.
func (a Arrival) Job() (job.Job, error) {
	if a.End <= a.Start {
		return job.Job{}, fmt.Errorf("journal: arrival %d has empty interval [%d, %d)", a.ID, a.Start, a.End)
	}
	if a.Weight < 1 {
		return job.Job{}, fmt.Errorf("journal: arrival %d has weight %d, need >= 1", a.ID, a.Weight)
	}
	j := job.New(a.ID, a.Start, a.End)
	j.Weight = a.Weight
	return j, nil
}

// Event is the journaled form of one placement outcome, mirroring
// online.Event field for field so replay equivalence is an exact struct
// comparison.
type Event struct {
	Seq        int     `json:"seq"`
	JobID      int     `json:"job_id"`
	Rejected   bool    `json:"rejected,omitempty"`
	Machine    int     `json:"machine"`
	Opened     bool    `json:"opened,omitempty"`
	Marginal   int64   `json:"marginal"`
	Cost       int64   `json:"cost"`
	LowerBound int64   `json:"lower_bound"`
	Ratio      float64 `json:"ratio"`
	Open       int     `json:"open"`
}

// EventOf records a session event.
func EventOf(ev online.Event) Event {
	return Event{
		Seq: ev.Seq, JobID: ev.JobID, Rejected: ev.Rejected, Machine: ev.Machine,
		Opened: ev.Opened, Marginal: ev.Marginal, Cost: ev.Cost,
		LowerBound: ev.LowerBound, Ratio: ev.Ratio, Open: ev.Open,
	}
}

// OnlineEvent decodes the record back into the session event it mirrors.
func (e Event) OnlineEvent() online.Event {
	return online.Event{
		Seq: e.Seq, JobID: e.JobID, Rejected: e.Rejected, Machine: e.Machine,
		Opened: e.Opened, Marginal: e.Marginal, Cost: e.Cost,
		LowerBound: e.LowerBound, Ratio: e.Ratio, Open: e.Open,
	}
}

// Summary is the journaled form of the session's closing report.
type Summary struct {
	Strategy       string  `json:"strategy"`
	Arrivals       int     `json:"arrivals"`
	Admitted       int     `json:"admitted"`
	Rejected       int     `json:"rejected,omitempty"`
	AdmittedWeight int64   `json:"admitted_weight"`
	RejectedWeight int64   `json:"rejected_weight,omitempty"`
	Cost           int64   `json:"cost"`
	MachinesOpened int     `json:"machines_opened"`
	PeakOpen       int     `json:"peak_open"`
	LowerBound     int64   `json:"lower_bound"`
	Ratio          float64 `json:"ratio"`
}

// SummaryOf records a session summary.
func SummaryOf(s online.Summary) Summary {
	return Summary{
		Strategy: s.Strategy, Arrivals: s.Arrivals, Admitted: s.Admitted,
		Rejected: s.Rejected, AdmittedWeight: s.AdmittedWeight,
		RejectedWeight: s.RejectedWeight, Cost: s.Cost,
		MachinesOpened: s.MachinesOpened, PeakOpen: s.PeakOpen,
		LowerBound: s.LowerBound, Ratio: s.Ratio,
	}
}

// OnlineSummary decodes the record back into the summary it mirrors.
func (s Summary) OnlineSummary() online.Summary {
	return online.Summary{
		Strategy: s.Strategy, Arrivals: s.Arrivals, Admitted: s.Admitted,
		Rejected: s.Rejected, AdmittedWeight: s.AdmittedWeight,
		RejectedWeight: s.RejectedWeight, Cost: s.Cost,
		MachinesOpened: s.MachinesOpened, PeakOpen: s.PeakOpen,
		LowerBound: s.LowerBound, Ratio: s.Ratio,
	}
}

// Record is one hash-chained journal entry. Seq numbers records within
// the session (open = 0); Prev and Hash are hex SHA-256 digests, with
// Hash covering Prev plus the canonical encoding of every other field,
// so any byte of any field is under the chain.
type Record struct {
	Session string      `json:"session"`
	Seq     int64       `json:"seq"`
	Kind    string      `json:"kind"`
	Prev    string      `json:"prev"`
	Hash    string      `json:"hash"`
	Open    *OpenParams `json:"open,omitempty"`
	Arrival *Arrival    `json:"arrival,omitempty"`
	Event   *Event      `json:"event,omitempty"`
	Close   *Summary    `json:"close,omitempty"`
}

// recordPayload is the hashed portion of a record: everything except
// Prev (prepended to the hash input as raw bytes) and Hash itself.
type recordPayload struct {
	Session string      `json:"session"`
	Seq     int64       `json:"seq"`
	Kind    string      `json:"kind"`
	Open    *OpenParams `json:"open,omitempty"`
	Arrival *Arrival    `json:"arrival,omitempty"`
	Event   *Event      `json:"event,omitempty"`
	Close   *Summary    `json:"close,omitempty"`
}

// payloadBytes returns the canonical hashed encoding of the record.
func (r Record) payloadBytes() ([]byte, error) {
	return json.Marshal(recordPayload{
		Session: r.Session, Seq: r.Seq, Kind: r.Kind,
		Open: r.Open, Arrival: r.Arrival, Event: r.Event, Close: r.Close,
	})
}

// chainHash computes the record hash: SHA-256 over the raw previous
// digest followed by the canonical payload.
func chainHash(prevHex string, payload []byte) (string, error) {
	prev, err := hex.DecodeString(prevHex)
	if err != nil || len(prev) != sha256.Size {
		return "", fmt.Errorf("journal: prev hash %q is not a %d-byte hex digest", prevHex, sha256.Size)
	}
	h := sha256.New()
	h.Write(prev)
	h.Write(payload)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// seal stamps Prev and Hash onto the record, chaining it to prevHash.
func seal(rec Record, prevHash string) (Record, error) {
	rec.Prev = prevHash
	payload, err := rec.payloadBytes()
	if err != nil {
		return Record{}, fmt.Errorf("journal: encoding record %d: %v", rec.Seq, err)
	}
	rec.Hash, err = chainHash(prevHash, payload)
	if err != nil {
		return Record{}, err
	}
	return rec, nil
}

// checkSeal recomputes the record's hash and reports whether it matches
// the stamped one.
func checkSeal(rec Record) error {
	payload, err := rec.payloadBytes()
	if err != nil {
		return fmt.Errorf("journal: encoding record %d: %v", rec.Seq, err)
	}
	want, err := chainHash(rec.Prev, payload)
	if err != nil {
		return err
	}
	if rec.Hash != want {
		return fmt.Errorf("journal: record %d hash %s does not match its content (want %s): chain corrupted", rec.Seq, rec.Hash, want)
	}
	return nil
}

// EncodeRecords writes the records as NDJSON, one record per line — the
// journal wire and file format.
func EncodeRecords(w io.Writer, recs []Record) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// DecodeRecords reads NDJSON records until EOF. The format is strictly
// canonical: every record line must be byte-identical to the canonical
// re-encoding of the value it decodes to, and newline-terminated.
// Go's JSON decoder alone is too forgiving for a certificate format —
// it drops unknown keys and matches field names case-insensitively, so
// without the canonical check a flipped byte in a key (`"seq"`→`"req"`,
// `"seq"`→`"sEq"`) could decode to the same record and slip past the
// hash chain. Byte-equality with the canonical form closes that class
// entirely: any byte the encoder would not have produced is an error.
func DecodeRecords(r io.Reader) ([]Record, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("journal: reading records: %w", err)
	}
	var recs []Record
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			return nil, fmt.Errorf("journal: record %d is not newline-terminated", len(recs))
		}
		var rec Record
		if err := json.Unmarshal(data[:nl], &rec); err != nil {
			return nil, fmt.Errorf("journal: decoding record %d: %v", len(recs), err)
		}
		var canon bytes.Buffer
		if err := EncodeRecords(&canon, []Record{rec}); err != nil {
			return nil, fmt.Errorf("journal: re-encoding record %d: %v", len(recs), err)
		}
		if !bytes.Equal(data[:nl+1], canon.Bytes()) {
			return nil, fmt.Errorf("journal: record %d is not canonically encoded", len(recs))
		}
		recs = append(recs, rec)
		data = data[nl+1:]
	}
	return recs, nil
}

// ErrSessionExists reports an attempt to open a session whose journal
// already holds records; the caller should resume it instead.
var ErrSessionExists = errors.New("journal: session already exists")

// Writer appends a session's records to a Store, maintaining the chain
// tail. Events are staged in memory and persisted in one Append per
// Commit, so a stream session pays one store round trip (and one fsync,
// for the file store) per flush instead of per arrival. A
// Writer is not safe for concurrent use; the serving layer drives one
// per session.
type Writer struct {
	store    Store
	session  string
	lastSeq  int64
	lastHash string
	events   int
	staged   []Record
	closed   bool
}

// NewWriter opens a fresh session: it refuses ids whose journal already
// holds records (resume those via Replay) and persists the open record
// immediately, so the session parameters are durable before the first
// arrival is acknowledged.
func NewWriter(store Store, session string, p OpenParams) (*Writer, error) {
	if !ValidSessionID(session) {
		return nil, fmt.Errorf("journal: invalid session id %q", session)
	}
	if recs, err := store.Read(session); err != nil && !errors.Is(err, ErrUnknownSession) {
		return nil, err
	} else if len(recs) > 0 {
		return nil, fmt.Errorf("%w: %s has %d records", ErrSessionExists, session, len(recs))
	}
	rec, err := seal(Record{Session: session, Seq: 0, Kind: KindOpen, Open: &p}, genesisHex)
	if err != nil {
		return nil, err
	}
	if err := store.Append(session, []Record{rec}); err != nil {
		return nil, err
	}
	return &Writer{store: store, session: session, lastSeq: 0, lastHash: rec.Hash}, nil
}

// Session returns the session id the writer appends to.
func (w *Writer) Session() string { return w.session }

// Events returns the number of event records written or staged so far —
// also the online sequence number the next arrival will receive.
func (w *Writer) Events() int { return w.events }

// Chain returns the hash at the chain's tail (including staged records).
func (w *Writer) Chain() string { return w.lastHash }

// StageEvent chains one arrival/placement pair onto the journal without
// persisting it yet; Commit flushes every staged record in one append.
func (w *Writer) StageEvent(a Arrival, ev online.Event) (Record, error) {
	if w.closed {
		return Record{}, fmt.Errorf("journal: session %s is closed", w.session)
	}
	rec, err := seal(Record{
		Session: w.session,
		Seq:     safemath.SatAdd(w.lastSeq, 1),
		Kind:    KindEvent,
		Arrival: &a,
		Event:   func() *Event { e := EventOf(ev); return &e }(),
	}, w.lastHash)
	if err != nil {
		return Record{}, err
	}
	w.staged = append(w.staged, rec)
	w.lastSeq = rec.Seq
	w.lastHash = rec.Hash
	w.events++
	return rec, nil
}

// Commit persists every staged record in one Store.Append. On error the
// staged records stay staged; the caller must treat the session as
// poisoned (its in-memory state is ahead of the durable journal).
func (w *Writer) Commit() error {
	if len(w.staged) == 0 {
		return nil
	}
	if err := w.store.Append(w.session, w.staged); err != nil {
		return err
	}
	w.staged = nil
	return nil
}

// Close chains and persists the close record (after committing anything
// staged) and returns the final hash — the session's certificate.
func (w *Writer) Close(sum online.Summary) (string, error) {
	if w.closed {
		return "", fmt.Errorf("journal: session %s is already closed", w.session)
	}
	if err := w.Commit(); err != nil {
		return "", err
	}
	s := SummaryOf(sum)
	rec, err := seal(Record{
		Session: w.session,
		Seq:     safemath.SatAdd(w.lastSeq, 1),
		Kind:    KindClose,
		Close:   &s,
	}, w.lastHash)
	if err != nil {
		return "", err
	}
	if err := w.store.Append(w.session, []Record{rec}); err != nil {
		return "", err
	}
	w.lastSeq = rec.Seq
	w.lastHash = rec.Hash
	w.closed = true
	return rec.Hash, nil
}
