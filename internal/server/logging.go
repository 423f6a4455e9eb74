package server

import (
	"encoding/json"
	"io"
	"sync"
	"time"

	"repro/internal/wirejson"
)

// logEntry is one structured request-log line: every served request and
// every stream lifecycle event emits exactly one, so an operator can
// reconstruct a session's timeline (open → events → close/error) by
// filtering on the session id.
type logEntry struct {
	// TS is the wall-clock time of the entry (RFC 3339, nanoseconds).
	TS string `json:"ts"`
	// Kind names the entry: solve, batch, stream_open, stream_event,
	// stream_close, stream_error.
	Kind string `json:"kind"`
	// Session and Seq identify the stream position for stream_* entries.
	Session string `json:"session,omitempty"`
	Seq     int    `json:"seq,omitempty"`
	// Outcome is the entry's result: ok / error for requests,
	// assign / reject / resumed / error for stream entries.
	Outcome string `json:"outcome"`
	// DurationNS is the entry's wall clock: request handling for
	// solve/batch, queue+flush+solve for a stream event, whole-session
	// for close.
	DurationNS int64 `json:"duration_ns,omitempty"`
	// Size is the batch/flush size where one applies.
	Size int `json:"size,omitempty"`
	// Algorithm labels solve/batch entries with the served algorithm
	// ("auto" for an unpinned batch, "error" for a failed solve).
	Algorithm string `json:"algorithm,omitempty"`
	// PhaseNS carries the per-phase breakdown on slow_solve entries:
	// phase span name → total nanoseconds in the request's trace.
	PhaseNS map[string]int64 `json:"phase_ns,omitempty"`
	// Error carries the failure detail on error outcomes.
	Error string `json:"error,omitempty"`
}

// requestLog serializes JSON-line entries onto one writer. A nil
// *requestLog (or a nil writer) drops everything — the -quiet path costs
// one nil check per entry, no formatting.
type requestLog struct {
	mu  sync.Mutex
	w   io.Writer
	enc *json.Encoder
	buf []byte // appendEntry's line, reused
}

// newRequestLog returns a logger writing to w, or nil when w is nil.
func newRequestLog(w io.Writer) *requestLog {
	if w == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return &requestLog{w: w, enc: enc}
}

// log writes one entry, stamping the timestamp, in one Write; safe on a
// nil receiver. appendEntry writes the line, and the Encoder the entries
// it declines.
func (l *requestLog) log(e logEntry) {
	if l == nil {
		return
	}
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	b, ok := appendEntry(l.buf[:0], now, &e)
	if !ok {
		e.TS = now.UTC().Format(time.RFC3339Nano)
		_ = l.enc.Encode(e)
		return
	}
	l.buf = b
	_, _ = l.w.Write(b)
}

// appendEntry appends e's line, stamped ts, as an Encoder with
// SetEscapeHTML(false) writes it. It reports false, with b as it was,
// for an entry with phases or with a string that is not wirejson.Plain,
// whose bytes are encoding/json's to spell.
func appendEntry(b []byte, ts time.Time, e *logEntry) ([]byte, bool) {
	if len(e.PhaseNS) > 0 || !wirejson.Plain(e.Kind) || !wirejson.Plain(e.Session) ||
		!wirejson.Plain(e.Outcome) || !wirejson.Plain(e.Algorithm) || !wirejson.Plain(e.Error) {
		return b, false
	}
	b = ts.UTC().AppendFormat(append(b, `{"ts":"`...), time.RFC3339Nano)
	b = appendQuoted(b, `","kind":"`, e.Kind)
	if e.Session != "" {
		b = appendQuoted(b, `,"session":"`, e.Session)
	}
	b = appendNonZero(b, `,"seq":`, int64(e.Seq))
	b = appendQuoted(b, `,"outcome":"`, e.Outcome)
	b = appendNonZero(b, `,"duration_ns":`, e.DurationNS)
	b = appendNonZero(b, `,"size":`, int64(e.Size))
	if e.Algorithm != "" {
		b = appendQuoted(b, `,"algorithm":"`, e.Algorithm)
	}
	if e.Error != "" {
		b = appendQuoted(b, `,"error":"`, e.Error)
	}
	return append(b, "}\n"...), true
}

// appendQuoted appends key, which ends in an opening quote, the plain
// string s and the closing quote.
func appendQuoted(b []byte, key, s string) []byte {
	b = append(b, key...)
	b = append(b, s...)
	return append(b, '"')
}
