package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/online"
)

// pinRecords is a session whose open record's strategy holds '&' (a
// string json.Marshal and the store's encoder write differently) and
// whose close ratio prints in exponent form. Load does not check the
// chain, so the digests are placeholders.
func pinRecords() []Record {
	h1, h2, h3 := strings.Repeat("1", 64), strings.Repeat("2", 64), strings.Repeat("3", 64)
	return []Record{
		{Session: "pin", Seq: 0, Kind: KindOpen, Prev: genesisHex, Hash: h1,
			Open: &OpenParams{G: 2, Strategy: "fit&go"}},
		{Session: "pin", Seq: 1, Kind: KindEvent, Prev: h1, Hash: h2,
			Arrival: &Arrival{ID: 0, Start: 0, End: 10, Weight: 1},
			Event:   &online.Event{Opened: true, Marginal: 10, Cost: 10, LowerBound: 10, Ratio: 1, Open: 1}},
		{Session: "pin", Seq: 2, Kind: KindClose, Prev: h2, Hash: h3,
			Close: &online.Summary{Strategy: "online-firstfit", Arrivals: 1, Admitted: 1, AdmittedWeight: 1,
				Cost: 10, MachinesOpened: 1, PeakOpen: 1, LowerBound: 10, Ratio: 1e-7}},
	}
}

// pinLog is the log FileStore writes for pinRecords.
const pinLog = `{"session":"pin","seq":0,"kind":"open","prev":"0000000000000000000000000000000000000000000000000000000000000000","hash":"1111111111111111111111111111111111111111111111111111111111111111","open":{"g":2,"strategy":"fit&go"}}
{"session":"pin","seq":1,"kind":"event","prev":"1111111111111111111111111111111111111111111111111111111111111111","hash":"2222222222222222222222222222222222222222222222222222222222222222","arrival":{"id":0,"start":0,"end":10,"weight":1},"event":{"seq":0,"job_id":0,"machine":0,"opened":true,"marginal":10,"cost":10,"lower_bound":10,"ratio":1,"open":1}}
{"session":"pin","seq":2,"kind":"close","prev":"2222222222222222222222222222222222222222222222222222222222222222","hash":"3333333333333333333333333333333333333333333333333333333333333333","close":{"strategy":"online-firstfit","arrivals":1,"admitted":1,"admitted_weight":1,"cost":10,"machines_opened":1,"peak_open":1,"lower_bound":10,"ratio":1e-7}}
`

// TestFileStoreFallbackPinned keeps a log that needs both sides of the
// codec: the open record takes the encoding/json fallback, the close
// record the exponent float format. The log's bytes, the records a
// reopen reads back and their re-encoding are pinned.
func TestFileStoreFallbackPinned(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	recs := pinRecords()
	st, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append("pin", recs[:1]); err != nil {
		t.Fatal(err)
	}
	if err := st.Append("pin", recs[1:]); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != pinLog {
		t.Errorf("the log holds\n%s\nwant\n%s", data, pinLog)
	}

	st, err = OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got, err := st.Read("pin")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Errorf("reopened store read back\n%+v\nwant\n%+v", got, recs)
	}
	var buf bytes.Buffer
	if err := EncodeRecords(&buf, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Errorf("EncodeRecords of the read-back records differs from the log")
	}
}

// TestDecodeRecordsRejectsNonCanonical edits one golden line in ways
// that decode to the same or a nearby record through encoding/json but
// are not the bytes the encoder writes: each must be refused, with the
// error encoding/json's decode gives, whichever decode path reads it.
func TestDecodeRecordsRejectsNonCanonical(t *testing.T) {
	line := `{"session":"s","seq":1,"kind":"event","prev":"` + strings.Repeat("a", 64) + `","hash":"` + strings.Repeat("b", 64) +
		`","arrival":{"id":0,"start":5,"end":16,"weight":1},"event":{"seq":0,"job_id":0,"machine":0,"opened":true,"marginal":11,"cost":11,"lower_bound":11,"ratio":1.5,"open":1}}` + "\n"
	if _, err := DecodeRecords(strings.NewReader(line)); err != nil {
		t.Fatalf("the unedited line: %v", err)
	}
	edits := []struct{ name, from, to, err string }{
		{"leading zero", `"seq":1,`, `"seq":01,`, `journal: decoding record 0: invalid character '1' after object key:value pair`},
		{"trailing zero", `"ratio":1.5`, `"ratio":1.50`, `journal: record 0 is not canonically encoded`},
		{"exponent", `"ratio":1.5`, `"ratio":15e-1`, `journal: record 0 is not canonically encoded`},
		{"zero bool", `"opened":true`, `"opened":true,"rejected":false`, `journal: record 0 is not canonically encoded`},
		{"space", `"seq":1,`, `"seq": 1,`, `journal: record 0 is not canonically encoded`},
		{"key case", `"seq":1,`, `"Seq":1,`, `journal: record 0 is not canonically encoded`},
		{"unknown key", `"seq":1,`, `"seq":1,"x":0,`, `journal: record 0 is not canonically encoded`},
		{"key order", `"seq":1,"kind":"event"`, `"kind":"event","seq":1`, `journal: record 0 is not canonically encoded`},
		{"escape", `"session":"s"`, `"session":"\u0073"`, `journal: record 0 is not canonically encoded`},
		{"null payload", `"kind":"event",`, `"kind":"event","open":null,`, `journal: record 0 is not canonically encoded`},
		{"duplicate key", `"seq":1,`, `"seq":2,"seq":1,`, `journal: record 0 is not canonically encoded`},
		{"float int", `"cost":11,`, `"cost":11.0,`, `journal: decoding record 0: json: cannot unmarshal number 11.0 into Go struct field Event.event.cost of type int64`},
		{"no newline", "}}\n", "}}", `journal: record 0 is not newline-terminated`},
		{"crlf", "}}\n", "}}\r\n", `journal: record 0 is not canonically encoded`},
	}
	for _, e := range edits {
		edited := strings.Replace(line, e.from, e.to, 1)
		if edited == line {
			t.Fatalf("%s: edit %q not applied", e.name, e.from)
		}
		if _, err := DecodeRecords(strings.NewReader(edited)); err == nil || err.Error() != e.err {
			t.Errorf("%s: DecodeRecords = %v, want %s", e.name, err, e.err)
		}
	}
}

// goldenRecordLines returns every record line of testdata/certify.golden.
func goldenRecordLines(tb testing.TB) []string {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "certify.golden"))
	if err != nil {
		tb.Fatal(err)
	}
	var lines []string
	for _, line := range strings.Split(string(data), "\n") {
		if line != "" && !strings.HasPrefix(line, certPrefix) {
			lines = append(lines, line)
		}
	}
	return lines
}

// Record shapes for FuzzRecordCodec: which payloads a record carries
// and which of its bools are set.
const (
	shapeOpen uint8 = 1 << iota
	shapeArrival
	shapeEvent
	shapeClose
	shapeRejected
	shapeOpened
	shapeOddKind // the kind is the strategy string
)

// fuzzRecord builds a record from FuzzRecordCodec's fields.
func fuzzRecord(session, str string, seq, x, y int64, ratio uint64, shape uint8) Record {
	kinds := [...]string{KindOpen, KindEvent, KindClose}
	rec := Record{Session: session, Seq: seq, Kind: kinds[uint64(seq)%3], Prev: str, Hash: session}
	if shape&shapeOddKind != 0 {
		rec.Kind = str
	}
	r := math.Float64frombits(ratio)
	if shape&shapeOpen != 0 {
		rec.Open = &OpenParams{G: int(x), Strategy: str, Budget: y}
	}
	if shape&shapeArrival != 0 {
		rec.Arrival = &Arrival{ID: int(seq), Start: x, End: y, Weight: x ^ y}
	}
	if shape&shapeEvent != 0 {
		rec.Event = &online.Event{Seq: int(x), JobID: int(y), Rejected: shape&shapeRejected != 0, Machine: int(seq),
			Opened: shape&shapeOpened != 0, Marginal: x, Cost: y, LowerBound: seq, Ratio: r, Open: int(x - y)}
	}
	if shape&shapeClose != 0 {
		rec.Close = &online.Summary{Strategy: str, Arrivals: int(x), Admitted: int(y), Rejected: int(seq),
			AdmittedWeight: x, RejectedWeight: y, Cost: seq, MachinesOpened: int(x), PeakOpen: int(y), LowerBound: x, Ratio: r}
	}
	return rec
}

// encoderLine is the line encoding/json writes for rec, the record
// codec's reference.
func encoderLine(rec Record) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	err := enc.Encode(rec)
	return buf.Bytes(), err
}

// decodeReference decodes a line as DecodeRecords did before the record
// codec: json.Unmarshal, then a byte comparison with the line the
// Encoder writes for the result.
func decodeReference(line []byte) (Record, error) {
	var rec Record
	if err := json.Unmarshal(line[:len(line)-1], &rec); err != nil {
		return Record{}, fmt.Errorf("journal: decoding record 0: %v", err)
	}
	canon, err := encoderLine(rec)
	if err != nil {
		return Record{}, fmt.Errorf("journal: re-encoding record 0: %v", err)
	}
	if !bytes.Equal(line, canon) {
		return Record{}, fmt.Errorf("journal: record 0 is not canonically encoded")
	}
	return rec, nil
}

// FuzzRecordCodec pins the record codec to encoding/json. A record
// built from the fuzzed fields that appendRecord writes must be written
// as the Encoder writes it, and its payload as json.Marshal writes its
// recordPayload, and must decode back to itself. The raw line must
// decode, or fail to, exactly as the json.Unmarshal-and-compare decode
// does, and a line scanRecord reads on its own must be one
// json.Unmarshal reads to the same record.
func FuzzRecordCodec(f *testing.F) {
	for _, line := range goldenRecordLines(f) {
		var rec Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			f.Fatal(err)
		}
		var (
			str      string
			x, y     int64
			ratio    float64
			shape    uint8
			kindSeqs = map[string]int64{KindOpen: 0, KindEvent: 1, KindClose: 2}
		)
		if rec.Open != nil {
			str, x, y, shape = rec.Open.Strategy, int64(rec.Open.G), rec.Open.Budget, shape|shapeOpen
		}
		if rec.Event != nil {
			x, y, ratio, shape = rec.Event.Marginal, rec.Event.Cost, rec.Event.Ratio, shape|shapeArrival|shapeEvent
			if rec.Event.Rejected {
				shape |= shapeRejected
			}
			if rec.Event.Opened {
				shape |= shapeOpened
			}
		}
		if rec.Close != nil {
			str, x, y, ratio, shape = rec.Close.Strategy, rec.Close.AdmittedWeight, rec.Close.RejectedWeight, rec.Close.Ratio, shape|shapeClose
		}
		seq := rec.Seq - rec.Seq%3 + kindSeqs[rec.Kind]
		f.Add([]byte(line), rec.Session, str, seq, x, y, math.Float64bits(ratio), shape)
	}
	// The fallbacks: a strategy json.Marshal and the Encoder write
	// differently, strings only encoding/json writes, and the ratios at
	// the edges of the float format, at extreme integers.
	pin := strings.SplitAfter(pinLog, "\n")
	f.Add([]byte(pin[0]), "pin", "fit&go", int64(0), int64(2), int64(0), uint64(0), shapeOpen)
	for _, s := range []string{"a<b>c", `"`, `\`, "é", " ", "\x7f", "\t"} {
		f.Add([]byte(pin[1]), s, "online-"+s, int64(1), int64(0), int64(10), math.Float64bits(1), shapeArrival|shapeEvent|shapeClose)
	}
	for _, r := range []float64{1e-7, 1e21, 1e-6, 1e20, 9.999999999999999e-7, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, math.MaxFloat64} {
		f.Add([]byte(pin[2]), "pin", "online-firstfit", int64(math.MinInt64), int64(math.MaxInt64), int64(-1),
			math.Float64bits(r), shapeEvent|shapeClose|shapeOpened|shapeRejected)
	}

	f.Fuzz(func(t *testing.T, line []byte, session, str string, seq, x, y int64, ratio uint64, shape uint8) {
		rec := fuzzRecord(session, str, seq, x, y, ratio, shape)
		if got, ok := appendRecord(nil, &rec, true); ok {
			want, err := encoderLine(rec)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("appendRecord wrote\n%s\nthe Encoder\n%s(%v)", got, want, err)
			}
			payload, _ := appendRecord(nil, &rec, false)
			want, err = json.Marshal(recordPayload{Session: rec.Session, Seq: rec.Seq, Kind: rec.Kind,
				Open: rec.Open, Arrival: rec.Arrival, Event: rec.Event, Close: rec.Close})
			if err != nil || !bytes.Equal(payload, want) {
				t.Fatalf("appendRecord's payload\n%s\njson.Marshal's\n%s(%v)", payload, want, err)
			}
			var scratch []byte
			if back, err := decodeRecord(got, 0, &scratch); err != nil || !reflect.DeepEqual(back, rec) {
				t.Fatalf("a written record decodes to %+v (%v)", back, err)
			}
		}

		if back, ok := scanRecord(line); ok {
			var want Record
			if err := json.Unmarshal(line, &want); err != nil || !reflect.DeepEqual(back, want) {
				t.Fatalf("scanRecord read %+v, json.Unmarshal %+v (%v)", back, want, err)
			}
		}
		full := append(bytes.Clone(line), '\n')
		var scratch []byte
		got, gotErr := decodeRecord(full, 0, &scratch)
		want, wantErr := decodeReference(full)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("decodeRecord = %+v, %v; the reference %+v, %v", got, gotErr, want, wantErr)
		}
	})
}
