package journal

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/online"
	"repro/internal/wirejson"
)

// The record codec. A record's line is what an encoding/json Encoder
// with SetEscapeHTML(false) writes for it, newline included, and its
// hash input is what json.Marshal writes for its recordPayload: the
// same bytes without the "prev" and "hash" members. appendRecord
// writes both without reflection and scanRecord reads a line back in
// one pass. Where they decline, encoding/json runs instead, record by
// record, so the bytes, the accepted lines and the errors are the
// encoder's and the decoder's:
//   - a string that is not wirejson.Plain (json.Marshal and the
//     Encoder escape '<', '>' and '&' differently, and every escape is
//     theirs to spell);
//   - a NaN or infinite ratio, which encoding/json refuses;
//   - a line scanRecord does not read, or whose re-encoding differs
//     from it.

// appendRecord appends rec's line when line is set, else its hash
// payload. It reports false, with b as it was, when rec holds a string
// that is not plain or a ratio that is not finite.
func appendRecord(b []byte, rec *Record, line bool) ([]byte, bool) {
	plain := wirejson.Plain(rec.Session) && wirejson.Plain(rec.Kind) &&
		(!line || wirejson.Plain(rec.Prev) && wirejson.Plain(rec.Hash)) &&
		(rec.Open == nil || wirejson.Plain(rec.Open.Strategy)) &&
		(rec.Close == nil || wirejson.Plain(rec.Close.Strategy))
	if !plain {
		return b, false
	}
	in := b
	var ok bool
	b = appendString(b, `{"session":`, rec.Session)
	b = appendInt(b, `,"seq":`, rec.Seq)
	b = appendString(b, `,"kind":`, rec.Kind)
	if line {
		b = appendString(b, `,"prev":`, rec.Prev)
		b = appendString(b, `,"hash":`, rec.Hash)
	}
	if o := rec.Open; o != nil {
		b = appendInt(b, `,"open":{"g":`, int64(o.G))
		b = appendString(b, `,"strategy":`, o.Strategy)
		if o.Budget != 0 {
			b = appendInt(b, `,"budget":`, o.Budget)
		}
		b = append(b, '}')
	}
	if a := rec.Arrival; a != nil {
		b = appendInt(b, `,"arrival":{"id":`, int64(a.ID))
		b = appendInt(b, `,"start":`, a.Start)
		b = appendInt(b, `,"end":`, a.End)
		b = appendInt(b, `,"weight":`, a.Weight)
		b = append(b, '}')
	}
	if e := rec.Event; e != nil {
		b = appendInt(b, `,"event":{"seq":`, int64(e.Seq))
		b = appendInt(b, `,"job_id":`, int64(e.JobID))
		if e.Rejected {
			b = append(b, `,"rejected":true`...)
		}
		b = appendInt(b, `,"machine":`, int64(e.Machine))
		if e.Opened {
			b = append(b, `,"opened":true`...)
		}
		b = appendInt(b, `,"marginal":`, e.Marginal)
		b = appendInt(b, `,"cost":`, e.Cost)
		b = appendInt(b, `,"lower_bound":`, e.LowerBound)
		if b, ok = wirejson.AppendFloat(append(b, `,"ratio":`...), e.Ratio); !ok {
			return in, false
		}
		b = appendInt(b, `,"open":`, int64(e.Open))
		b = append(b, '}')
	}
	if c := rec.Close; c != nil {
		b = appendString(b, `,"close":{"strategy":`, c.Strategy)
		b = appendInt(b, `,"arrivals":`, int64(c.Arrivals))
		b = appendInt(b, `,"admitted":`, int64(c.Admitted))
		if c.Rejected != 0 {
			b = appendInt(b, `,"rejected":`, int64(c.Rejected))
		}
		b = appendInt(b, `,"admitted_weight":`, c.AdmittedWeight)
		if c.RejectedWeight != 0 {
			b = appendInt(b, `,"rejected_weight":`, c.RejectedWeight)
		}
		b = appendInt(b, `,"cost":`, c.Cost)
		b = appendInt(b, `,"machines_opened":`, int64(c.MachinesOpened))
		b = appendInt(b, `,"peak_open":`, int64(c.PeakOpen))
		b = appendInt(b, `,"lower_bound":`, c.LowerBound)
		if b, ok = wirejson.AppendFloat(append(b, `,"ratio":`...), c.Ratio); !ok {
			return in, false
		}
		b = append(b, '}')
	}
	b = append(b, '}')
	if line {
		b = append(b, '\n')
	}
	return b, true
}

// appendString appends key and the plain string s in quotes.
func appendString(b []byte, key, s string) []byte {
	b = append(b, key...)
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendInt appends key and v.
func appendInt(b []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(b, key...), v, 10)
}

// scanRecord reads a record line, its newline left off, in the layout
// appendRecord writes, and reports false where the line leaves it. It
// reads some lines appendRecord would not write (a number with a
// trailing zero, say), so only a record whose re-encoding gives back
// the line is accepted.
func scanRecord(line []byte) (Record, bool) {
	var rec Record
	sc := wirejson.New(line)
	must := func(lit string) {
		if !sc.Literal(lit) {
			sc.Fail()
		}
	}
	must(`{"session":`)
	rec.Session = sc.String()
	must(`,"seq":`)
	rec.Seq = sc.Int64()
	must(`,"kind":`)
	switch {
	case sc.Literal(`"event"`):
		rec.Kind = KindEvent
	case sc.Literal(`"open"`):
		rec.Kind = KindOpen
	case sc.Literal(`"close"`):
		rec.Kind = KindClose
	default:
		sc.Fail()
	}
	must(`,"prev":`)
	rec.Prev = sc.String()
	must(`,"hash":`)
	rec.Hash = sc.String()
	if sc.Literal(`,"open":{"g":`) {
		o := &OpenParams{G: sc.Int()}
		must(`,"strategy":`)
		o.Strategy = sc.String()
		if sc.Literal(`,"budget":`) {
			o.Budget = sc.Int64()
		}
		must(`}`)
		rec.Open = o
	}
	if sc.Literal(`,"arrival":{"id":`) {
		a := &Arrival{ID: sc.Int()}
		must(`,"start":`)
		a.Start = sc.Int64()
		must(`,"end":`)
		a.End = sc.Int64()
		must(`,"weight":`)
		a.Weight = sc.Int64()
		must(`}`)
		rec.Arrival = a
	}
	if sc.Literal(`,"event":{"seq":`) {
		e := &online.Event{Seq: sc.Int()}
		must(`,"job_id":`)
		e.JobID = sc.Int()
		e.Rejected = sc.Literal(`,"rejected":true`)
		must(`,"machine":`)
		e.Machine = sc.Int()
		e.Opened = sc.Literal(`,"opened":true`)
		must(`,"marginal":`)
		e.Marginal = sc.Int64()
		must(`,"cost":`)
		e.Cost = sc.Int64()
		must(`,"lower_bound":`)
		e.LowerBound = sc.Int64()
		must(`,"ratio":`)
		e.Ratio = sc.Float64()
		must(`,"open":`)
		e.Open = sc.Int()
		must(`}`)
		rec.Event = e
	}
	if sc.Literal(`,"close":{"strategy":`) {
		c := &online.Summary{Strategy: sc.String()}
		must(`,"arrivals":`)
		c.Arrivals = sc.Int()
		must(`,"admitted":`)
		c.Admitted = sc.Int()
		if sc.Literal(`,"rejected":`) {
			c.Rejected = sc.Int()
		}
		must(`,"admitted_weight":`)
		c.AdmittedWeight = sc.Int64()
		if sc.Literal(`,"rejected_weight":`) {
			c.RejectedWeight = sc.Int64()
		}
		must(`,"cost":`)
		c.Cost = sc.Int64()
		must(`,"machines_opened":`)
		c.MachinesOpened = sc.Int()
		must(`,"peak_open":`)
		c.PeakOpen = sc.Int()
		must(`,"lower_bound":`)
		c.LowerBound = sc.Int64()
		must(`,"ratio":`)
		c.Ratio = sc.Float64()
		must(`}`)
		rec.Close = c
	}
	must(`}`)
	return rec, sc.End()
}

// appendLine appends rec's line: appendRecord's, or the Encoder's where
// appendRecord declines.
func appendLine(b []byte, rec *Record) ([]byte, error) {
	if out, ok := appendRecord(b, rec, true); ok {
		return out, nil
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(rec); err != nil {
		return b, err
	}
	return append(b, buf.Bytes()...), nil
}

// appendPayload appends rec's hash payload: appendRecord's, or
// json.Marshal's where appendRecord declines.
func appendPayload(b []byte, rec *Record) ([]byte, error) {
	if out, ok := appendRecord(b, rec, false); ok {
		return out, nil
	}
	p, err := json.Marshal(recordPayload{
		Session: rec.Session, Seq: rec.Seq, Kind: rec.Kind,
		Open: rec.Open, Arrival: rec.Arrival, Event: rec.Event, Close: rec.Close,
	})
	return append(b, p...), err
}

// decodeRecord decodes one newline-terminated record line, numbered i
// in its errors. The line must be byte-identical to the record's
// re-encoding. *scratch is reused for that re-encoding.
func decodeRecord(line []byte, i int, scratch *[]byte) (Record, error) {
	if rec, ok := scanRecord(line[:len(line)-1]); ok {
		if canon, ok := appendRecord((*scratch)[:0], &rec, true); ok {
			*scratch = canon
			if bytes.Equal(line, canon) {
				return rec, nil
			}
		}
	}
	var rec Record
	if err := json.Unmarshal(line[:len(line)-1], &rec); err != nil {
		return Record{}, fmt.Errorf("journal: decoding record %d: %v", i, err)
	}
	canon, err := appendLine((*scratch)[:0], &rec)
	if err != nil {
		return Record{}, fmt.Errorf("journal: re-encoding record %d: %v", i, err)
	}
	*scratch = canon
	if !bytes.Equal(line, canon) {
		return Record{}, fmt.Errorf("journal: record %d is not canonically encoded", i)
	}
	return rec, nil
}

// decodeLines decodes data's record lines where they lie, numbered from
// 0, and hands each record to add with its line's start and end in
// data. It returns len(data), or the start of the first line that does
// not decode or has no newline, with that line's error.
func decodeLines(data []byte, add func(rec Record, start, end int)) (int, error) {
	var scratch []byte
	start := 0
	for i := 0; start < len(data); i++ {
		nl := bytes.IndexByte(data[start:], '\n')
		if nl < 0 {
			return start, fmt.Errorf("journal: record %d is not newline-terminated", i)
		}
		end := start + nl + 1
		rec, err := decodeRecord(data[start:end], i, &scratch)
		if err != nil {
			return start, err
		}
		add(rec, start, end)
		start = end
	}
	return start, nil
}

// chainHash computes rec's hash after prevHex: SHA-256 over the raw
// previous digest followed by rec's payload, both built in *buf, which
// it reuses.
func chainHash(prevHex string, rec *Record, buf *[]byte) (string, error) {
	b, err := appendPayload(append((*buf)[:0], make([]byte, sha256.Size)...), rec)
	*buf = b
	if err != nil {
		return "", fmt.Errorf("journal: encoding record %d: %v", rec.Seq, err)
	}
	// The digest is decoded into the head of b from a copy past its end.
	n := len(b)
	valid := len(prevHex) == 2*sha256.Size
	if valid {
		b = append(b, prevHex...)
		*buf = b
		_, err := hex.Decode(b[:sha256.Size], b[n:])
		valid = err == nil
	}
	if !valid {
		return "", fmt.Errorf("journal: prev hash %q is not a %d-byte hex digest", prevHex, sha256.Size)
	}
	sum := sha256.Sum256(b[:n])
	var digest [2 * sha256.Size]byte
	hex.Encode(digest[:], sum[:])
	return string(digest[:]), nil
}
