package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/job"
	"repro/internal/wirejson"
	"repro/internal/workload"
)

// BenchmarkWireDecode times the request decode the solve and batch
// handlers run, next to the encoding/json decode they fall back to, on
// a solve body and an 8-item batch of general instances at n = 1250.
// In the encoding/json rows the instances still go through
// job.Instance.UnmarshalJSON, which decodes them on its own one-pass
// path, so those rows time the envelopes' encoding/json walks plus the
// one-pass instance decode. ns/job divides by every job the body
// carries.
func BenchmarkWireDecode(b *testing.B) {
	const n, items = 1250, 8
	for _, g := range []int{2, 4} {
		insts := make([]job.Instance, items)
		batch := BatchRequest{Requests: make([]Request, items)}
		for i := range insts {
			insts[i] = workload.General(int64(100*g+i), workload.Config{N: n, G: g, MaxTime: n * 101 / 15, MaxLen: 100})
			batch.Requests[i] = Request{Instance: &insts[i]}
		}
		solveBody, err := json.Marshal(Request{Instance: &insts[0]})
		if err != nil {
			b.Fatal(err)
		}
		batchBody, err := json.Marshal(batch)
		if err != nil {
			b.Fatal(err)
		}
		// A declined body would time the fallback twice over.
		scs, scb := wirejson.New(solveBody), wirejson.New(batchBody)
		if scanRequest(&scs); !scs.End() {
			b.Fatal("the one-pass decoder declined the solve body")
		}
		if scanBatch(&scb); !scb.End() {
			b.Fatal("the one-pass decoder declined the batch body")
		}
		run := func(name string, jobs int, decode func() error) {
			b.Run(fmt.Sprintf("%s/g=%d", name, g), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if err := decode(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*jobs), "ns/job")
			})
		}
		run("solve/one-pass", n, func() error { _, err := DecodeSolve(solveBody, nil); return err })
		run("solve/encoding-json", n, func() error { _, err := decodeSolveStd(bytes.NewReader(solveBody)); return err })
		run("batch/one-pass", items*n, func() error { _, err := DecodeBatch(batchBody, nil); return err })
		run("batch/encoding-json", items*n, func() error { _, err := decodeBatchStd(bytes.NewReader(batchBody)); return err })
	}
}
