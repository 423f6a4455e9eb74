package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/journal"
	"repro/internal/online"
	"repro/internal/wirejson"
)

// pinHeader and pinArrivals are a stream session that leaves the
// canonical one-line-per-arrival form: after three canonical lines come
// two arrivals on one line, an arrival spread over three lines, an
// unknown key, a capitalised key, and a last arrival with no newline.
const (
	pinHeader   = `{"g":2,"strategy":"online-firstfit","session":"pin-b"}` + "\n"
	pinArrivals = `{"id":0,"start":0,"end":10,"weight":1}` + "\n" +
		`{"id":1,"start":2,"end":9}` + "\n" +
		`{"id":2,"start":3,"end":12,"weight":2}` + "\n" +
		`{"id":3,"start":4,"end":8,"weight":1}{"id":4,"start":4,"end":6,"weight":1}` + "\n" +
		`{"id":5,` + "\n" + `"start":5,` + "\n" + `"end":20}` + "\n" +
		`{"id":6,"start":6,"end":15,"weight":1,"extra":true}` + "\n" +
		`{"ID":7,"start":7,"end":11,"weight":1}` + "\n" +
		`{"id":8,"start":8,"end":30,"weight":3}`
)

// pinEvents are the pinned session's response lines, timings removed.
var pinEvents = []string{
	`{"type":"open","session":"pin-b","cost":0,"lower_bound":0,"ratio":0,"strategy":"online-firstfit"}`,
	`{"type":"assign","opened":true,"marginal":10,"open_machines":1,"cost":10,"lower_bound":10,"ratio":1}`,
	`{"type":"assign","seq":1,"job_id":1,"open_machines":1,"cost":10,"lower_bound":10,"ratio":1}`,
	`{"type":"assign","seq":2,"job_id":2,"machine":1,"opened":true,"marginal":9,"open_machines":2,"cost":19,"lower_bound":13,"ratio":1.4615384615384615}`,
	`{"type":"assign","seq":3,"job_id":3,"machine":1,"open_machines":2,"cost":19,"lower_bound":15,"ratio":1.2666666666666666}`,
	`{"type":"assign","seq":4,"job_id":4,"machine":2,"opened":true,"marginal":2,"open_machines":3,"cost":21,"lower_bound":16,"ratio":1.3125}`,
	`{"type":"assign","seq":5,"job_id":5,"machine":2,"marginal":14,"open_machines":3,"cost":35,"lower_bound":24,"ratio":1.4583333333333333}`,
	`{"type":"assign","seq":6,"job_id":6,"machine":2,"open_machines":3,"cost":35,"lower_bound":28,"ratio":1.25}`,
	`{"type":"assign","seq":7,"job_id":7,"machine":3,"opened":true,"marginal":4,"open_machines":4,"cost":39,"lower_bound":30,"ratio":1.3}`,
	`{"type":"assign","seq":8,"job_id":8,"machine":1,"marginal":18,"open_machines":4,"cost":57,"lower_bound":41,"ratio":1.3902439024390243}`,
	`{"type":"close","session":"pin-b","cost":57,"lower_bound":41,"ratio":1.3902439024390243,"strategy":"online-firstfit","arrivals":9,"admitted":9,"admitted_weight":12,"machines_opened":4,"peak_open":4,"chain":"9714bd4bd42af8782d9fa530115fd3c5c4a5d2c69109a2c868a8aa9d831b6f48"}`,
}

// timing matches the per-arrival serving timings, the only event bytes
// that vary between runs.
var timing = regexp.MustCompile(`,"(queue|flush|solve)_ns":[0-9]+`)

// serveStream runs one stream session in process and returns its
// response lines with the timings removed.
func serveStream(t *testing.T, cfg Config, body string) []string {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/stream", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	return strings.Split(strings.TrimSuffix(timing.ReplaceAllString(rec.Body.String(), ""), "\n"), "\n")
}

// TestStreamFallbackPinned pins the events and close report of a
// session that leaves the canonical line form, so that they do not
// depend on which reader decodes its arrivals.
func TestStreamFallbackPinned(t *testing.T) {
	checkLines(t, serveStream(t, Config{}, pinHeader+pinArrivals), pinEvents)
}

// checkLines compares response lines with the pinned ones.
func checkLines(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d lines, want %d", len(got), len(want))
	}
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Errorf("line %d:\ngot:  %s\nwant: %s", i+1, got[i], want[i])
		}
	}
}

// TestStreamCutPinned cuts the pinned session short, by the body limit
// in mid-line and by a malformed line, before and after the session
// leaves the canonical line form: each must end in the pinned error
// event after the pinned acknowledged arrivals.
func TestStreamCutPinned(t *testing.T) {
	body := pinHeader + pinArrivals
	cases := []struct {
		name  string
		cfg   Config
		body  string
		acked int
		err   string
	}{
		{"limit in a canonical line", Config{MaxBodyBytes: int64(strings.Index(body, `"end":9}`) + 3)}, body,
			1, "server: stream exceeded the request body limit of 115 bytes"},
		{"limit after the fallback", Config{MaxBodyBytes: int64(strings.Index(body, `"extra"`) + 3)}, body,
			6, "server: stream exceeded the request body limit of 306 bytes"},
		{"malformed canonical line", Config{}, strings.Replace(body, `"end":9}`, `"end":9x}`, 1),
			1, "server: decoding arrival 1: invalid character 'x' after object key:value pair"},
		{"malformed line after the fallback", Config{}, strings.Replace(body, `"extra":true`, `"extra":tru`, 1),
			6, "server: decoding arrival 6: invalid character '}' in literal true (expecting 'e')"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := append(slices.Clone(pinEvents[:1+c.acked]),
				`{"type":"error","session":"pin-b","cost":0,"lower_bound":0,"ratio":0,"error":"`+c.err+`"}`)
			checkLines(t, serveStream(t, c.cfg, c.body), want)
		})
	}
}

// TestStreamArrivalWithoutNewline is a client that writes each of the
// pinned session's arrivals with no newline after it, the fifth in
// three pieces, and waits for each arrival's event before it writes
// the next. Every arrival, canonical or not, must be answered once its
// closing brace has arrived, as a json.Decoder answers it, with the
// pinned events; a reader that waits for a newline stalls the session
// until the client's timeout.
func TestStreamArrivalWithoutNewline(t *testing.T) {
	ts := newTestServer(t, Config{})
	pr, pw := io.Pipe()
	defer pw.Close()
	client := &http.Client{Timeout: 30 * time.Second}
	resps, errs := make(chan *http.Response, 1), make(chan error, 1)
	go func() {
		resp, err := client.Post(ts.URL+"/v1/stream", "application/x-ndjson", pr)
		if err != nil {
			errs <- err
			return
		}
		resps <- resp
	}()
	if _, err := io.WriteString(pw, pinHeader); err != nil {
		t.Fatal(err)
	}
	var resp *http.Response
	select {
	case resp = <-resps:
	case err := <-errs:
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := bufio.NewReader(resp.Body)
	var got []string
	readEvent := func() {
		t.Helper()
		line, err := events.ReadString('\n')
		if err != nil {
			t.Fatalf("after %d events: %v", len(got), err)
		}
		got = append(got, timing.ReplaceAllString(strings.TrimSuffix(line, "\n"), ""))
	}
	readEvent() // open
	for _, pieces := range [][]string{
		{`{"id":0,"start":0,"end":10,"weight":1}`},
		{`{"id":1,"start":2,"end":9}`},
		{`{"id":2,"start":3,"end":12,"weight":2}`},
		{` {"id":3,"start":4,"end":8,"weight":1}`},
		{"\n" + `{"id":4,"start":4,"end":6,"weight":1}`},
		{`{"id":5,`, ` "start":5,`, `"end":20}`},
		{`{"id":6,"start":6,"end":15,"weight":1,"extra":true}`},
		{`{"ID":7,"start":7,"end":11,"weight":1}`},
		{`{"id":8,"start":8,"end":30,"weight":3}`},
	} {
		for _, p := range pieces {
			if _, err := io.WriteString(pw, p); err != nil {
				t.Fatal(err)
			}
		}
		readEvent()
	}
	pw.Close()
	readEvent() // close
	checkLines(t, got, pinEvents)
}

// readAll reads arrivals until the first error, as readArrivals does.
func readAll(next func() (StreamArrival, error)) ([]StreamArrival, error) {
	var arrs []StreamArrival
	for {
		a, err := next()
		if err != nil {
			return arrs, err
		}
		arrs = append(arrs, a)
	}
}

// FuzzStreamLines pins the stream codec to encoding/json. A line
// scanArrival reads must be one json.Unmarshal reads to the same
// arrival, and a body, read whole, one byte a read, or cut by a read
// error at a fuzzed byte, must yield the same arrivals and the same
// error through the arrival reader as through a json.Decoder. An assign or reject event
// built from the fuzzed fields, as the handler builds one, must be
// written as the Encoder writes it, or refused where the Encoder fails.
func FuzzStreamLines(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("..", "journal", "testdata", "certify.golden"))
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.Split(string(golden), "\n") {
		var rec journal.Record
		if line == "" || strings.HasPrefix(line, "certificate ") {
			continue
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			f.Fatal(err)
		}
		body := []byte(line + "\n")
		var ev online.Event
		if rec.Event != nil {
			a := rec.Arrival
			if body, err = json.Marshal(StreamArrival{ID: a.ID, Start: a.Start, End: a.End, Weight: a.Weight}); err != nil {
				f.Fatal(err)
			}
			ev = *rec.Event
		}
		f.Add(body, uint16(len(body)), int64(ev.Seq), int64(ev.JobID), int64(ev.Machine), ev.Marginal, ev.Cost, ev.LowerBound,
			math.Float64bits(ev.Ratio), int64(ev.Open), ev.Rejected, ev.Opened)
	}
	// The fallback: the pinned session's arrivals, cut at a few places,
	// with ratios at the edges of the float format and ratios the Encoder
	// refuses.
	for i, r := range []float64{1e-7, 1e21, math.Copysign(0, -1), math.NaN(), math.Inf(-1)} {
		f.Add([]byte(pinArrivals), uint16(len(pinArrivals)-40*i), int64(i), int64(1), int64(0), int64(0), int64(1), int64(0),
			math.Float64bits(r), int64(1), false, false)
	}

	f.Fuzz(func(t *testing.T, body []byte, cut uint16, seq, jobID, machine, marginal, cost, lb int64, ratio uint64, open int64, rejected, opened bool) {
		sc := wirejson.New(body)
		if arr := scanArrival(&sc); sc.End() {
			var want StreamArrival
			if err := json.Unmarshal(body, &want); err != nil || arr != want {
				t.Fatalf("scanArrival read %+v, json.Unmarshal %+v (%v)", arr, want, err)
			}
		}
		for _, r := range []func() io.Reader{
			func() io.Reader { return bytes.NewReader(body) },
			func() io.Reader { return iotest.OneByteReader(bytes.NewReader(body)) },
			func() io.Reader {
				n := min(int(cut), len(body))
				return io.MultiReader(bytes.NewReader(body[:n]), errReader{errCut})
			},
		} {
			got, gotErr := readAll(newArrivalReader(r()).next)
			dec := json.NewDecoder(r())
			want, wantErr := readAll(func() (StreamArrival, error) {
				var a StreamArrival
				err := dec.Decode(&a)
				return a, err
			})
			if !slices.Equal(got, want) || gotErr.Error() != wantErr.Error() {
				t.Fatalf("the arrival reader read %+v, %v; a json.Decoder %+v, %v", got, gotErr, want, wantErr)
			}
		}

		ev := WireStreamEvent(online.Event{Seq: int(seq), JobID: int(jobID), Rejected: rejected, Machine: int(machine),
			Opened: opened, Marginal: marginal, Cost: cost, LowerBound: lb, Ratio: math.Float64frombits(ratio), Open: int(open)})
		ev.QueueNS, ev.FlushNS, ev.SolveNS = cost^lb, marginal, seq
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetEscapeHTML(false)
		encErr := enc.Encode(ev)
		got, ok := appendStreamEvent([]byte("prefix"), &ev)
		if ok != (encErr == nil) || ok && !bytes.Equal(got[len("prefix"):], want.Bytes()) || !ok && string(got) != "prefix" {
			t.Fatalf("appendStreamEvent wrote %q (%v), the Encoder %q (%v)", got, ok, want.Bytes(), encErr)
		}
	})
}
