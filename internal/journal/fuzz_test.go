package journal

import (
	"bytes"
	"testing"
)

// FuzzJournalDecode feeds raw bytes through the full verification
// pipeline: decode, replay, verify. The pipeline's contract under
// arbitrary input — truncated chains, corrupted records, adversarial
// JSON — is to return an error, never to panic and never to certify
// anything that is not a complete, internally consistent session.
func FuzzJournalDecode(f *testing.F) {
	// Seed with a valid certified journal plus the classic near-misses:
	// truncations, a single flipped byte, torn tails, and junk.
	recs, _, err := Certify("seed", OpenParams{G: 3, Strategy: "online-bestfit"}, testArrivals(4))
	if err != nil {
		f.Fatalf("Certify: %v", err)
	}
	var buf bytes.Buffer
	if err := EncodeRecords(&buf, recs); err != nil {
		f.Fatalf("EncodeRecords: %v", err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-1])
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	f.Add([]byte("{}\n"))
	f.Add([]byte(`{"session":"x","seq":0,"kind":"open","prev":"00","hash":"zz","open":{"g":1,"strategy":"online-naive"}}` + "\n"))
	f.Add([]byte(""))
	// A budgeted session that rejects, so the rejected and rejected_weight
	// keys appear in the corpus.
	recs, cert, err := Certify("seed-budget", budgetParams(), testArrivals(9))
	if err != nil || cert.Summary.Rejected == 0 {
		f.Fatalf("Certify budgeted seed: %d rejected, %v", cert.Summary.Rejected, err)
	}
	var budgeted bytes.Buffer
	if err := EncodeRecords(&budgeted, recs); err != nil {
		f.Fatalf("EncodeRecords: %v", err)
	}
	f.Add(budgeted.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		decoded, err := DecodeRecords(bytes.NewReader(data))
		if err != nil {
			return
		}
		state, err := Replay(decoded)
		if err != nil {
			return
		}
		cert, err := Verify(decoded)
		if err != nil {
			// Replay succeeded but Verify refused: only legitimate on an
			// unclosed chain.
			if state.Closed {
				t.Fatalf("Verify rejected a journal Replay closed: %v", err)
			}
			return
		}
		// Anything certified must re-encode to bytes that certify to the
		// same certificate — the chain pins the canonical encoding.
		var out bytes.Buffer
		if err := EncodeRecords(&out, decoded); err != nil {
			t.Fatalf("re-encoding a verified journal: %v", err)
		}
		again, err := DecodeRecords(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding a verified journal: %v", err)
		}
		cert2, err := Verify(again)
		if err != nil {
			t.Fatalf("re-verifying a verified journal: %v", err)
		}
		if cert2 != cert {
			t.Fatalf("certificate changed across a byte round trip: %+v != %+v", cert2, cert)
		}
	})
}
