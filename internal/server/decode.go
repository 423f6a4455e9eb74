package server

import (
	"bytes"
	"encoding/json"
	"io"

	"repro/internal/job"
	"repro/internal/wirejson"
)

// Request bodies are decoded in one forward pass when they keep to the
// canonical subset clients send (json.Marshal output of Request and
// BatchRequest, or the same shapes spliced by hand): the exact keys
// below, each at most once, integer numbers, escape-free ASCII strings,
// a 1-D "instance" (job.ScanInstance) and nothing after the top-level
// object but whitespace. Any other body — and any body that fails a
// decode-time check — is decoded by encoding/json exactly as before, so
// statuses, error texts and per-item errors do not depend on which path
// ran. A batch takes the one-pass path whole or not at all.

// Batch is a decoded POST /v1/solve/batch body: the pinned algorithm
// and the requests in order. An item that failed to decode is left as
// the zero Request, with its error in Errs.
type Batch struct {
	Algorithm string
	Requests  []Request
	// Errs is nil when every item decoded, else one entry per item,
	// non-nil for the items that failed.
	Errs []error
}

// DecodeSolve decodes a POST /v1/solve body. body holds the bytes read
// and readErr the error that ended the read early, nil when body is the
// whole body. On the encoding/json path the decoder reads the same
// bytes and then meets the same error as when it streamed the body
// itself, so an over-cap body still fails with *http.MaxBytesError
// unless its object ended before the cap.
func DecodeSolve(body []byte, readErr error) (Request, error) {
	sc := wirejson.New(body)
	if req := scanRequest(&sc); sc.End() {
		return req, nil
	}
	return decodeSolveStd(cutShort(body, readErr))
}

// DecodeBatch decodes a POST /v1/solve/batch body, with DecodeSolve's
// arguments. Only a malformed envelope is an error; an item that does
// not decode fails alone, in Batch.Errs.
func DecodeBatch(body []byte, readErr error) (Batch, error) {
	sc := wirejson.New(body)
	if b := scanBatch(&sc); sc.End() {
		return b, nil
	}
	return decodeBatchStd(cutShort(body, readErr))
}

// decodeSolveStd is the encoding/json decode of a solve body: it reads
// the first JSON value and ignores whatever follows it.
func decodeSolveStd(r io.Reader) (Request, error) {
	var req Request
	err := json.NewDecoder(r).Decode(&req)
	return req, err
}

// batchEnvelope is the encoding/json decode shape of BatchRequest: the
// items stay raw so one malformed request (the instance codec validates
// eagerly) is unmarshaled — and fails — per item instead of aborting
// the whole batch decode.
type batchEnvelope struct {
	Algorithm string            `json:"algorithm"`
	Requests  []json.RawMessage `json:"requests"`
}

// decodeBatchStd is the encoding/json decode of a batch body: the
// envelope, then each item on its own.
func decodeBatchStd(r io.Reader) (Batch, error) {
	var env batchEnvelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return Batch{}, err
	}
	b := Batch{Algorithm: env.Algorithm, Requests: make([]Request, len(env.Requests))}
	for i, raw := range env.Requests {
		if err := json.Unmarshal(raw, &b.Requests[i]); err != nil {
			b.Requests[i] = Request{}
			if b.Errs == nil {
				b.Errs = make([]error, len(env.Requests))
			}
			b.Errs[i] = err
		}
	}
	return b, nil
}

// The keys scanBatch and scanRequest read. A "rect" key, like any key
// not listed, fails the scan: 2-D requests take the encoding/json path.
var (
	batchKeys   = []string{"algorithm", "requests"}
	requestKeys = []string{"kind", "instance", "budget", "timeout_ms", "base_id", "transition_budget"}
)

// scanBatch reads a batch body's object.
func scanBatch(sc *wirejson.Scanner) Batch {
	b := Batch{Requests: []Request{}}
	var seen uint64
	sc.Open('{')
	for i := 0; sc.Next('}', i); i++ {
		switch sc.Field(batchKeys, &seen) {
		case 0:
			b.Algorithm = sc.String()
		case 1:
			sc.Open('[')
			for k := 0; sc.Next(']', k); k++ {
				b.Requests = append(b.Requests, scanRequest(sc))
			}
		}
	}
	return b
}

// scanRequest reads one request object.
func scanRequest(sc *wirejson.Scanner) Request {
	var req Request
	var seen uint64
	sc.Open('{')
	for i := 0; sc.Next('}', i); i++ {
		switch sc.Field(requestKeys, &seen) {
		case 0:
			req.Kind = sc.String()
		case 1:
			in := job.ScanInstance(sc)
			req.Instance = &in
		case 2:
			req.Budget = sc.Int64()
		case 3:
			req.TimeoutMS = sc.Int64()
		case 4:
			req.BaseID = sc.String()
		case 5:
			req.TransitionBudget = sc.Int()
		}
	}
	return req
}

// cutShort replays body followed by readErr, the way the body's reader
// delivered them.
func cutShort(body []byte, readErr error) io.Reader {
	if readErr == nil {
		return bytes.NewReader(body)
	}
	return io.MultiReader(bytes.NewReader(body), errReader{readErr})
}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }
