package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/workload"
)

// runLoadgen is the `busysim loadgen` subcommand: it fires concurrent
// solve batches at a running busyd and reports throughput and latency
// percentiles — the replay load generator of the serving layer.
func runLoadgen(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("busysim loadgen", flag.ContinueOnError)
	inst := addInstanceFlags(fs, "proper", workload.Config{N: 20, G: 3, MaxTime: 400, MaxLen: 60}, false)
	var (
		addr        = fs.String("addr", "http://127.0.0.1:8080", "busyd base URL")
		batches     = fs.Int("batches", 32, "number of batches to fire")
		batchSize   = fs.Int("batch", 32, "requests per batch")
		concurrency = fs.Int("concurrency", 4, "concurrent in-flight batches")
		kind        = fs.String("kind", "min-busy", "request kind: min-busy|max-throughput|online")
		budget      = fs.Int64("budget", 0, "busy-time budget for max-throughput requests")
		algo        = fs.String("algo", "", "pin a batch algorithm (default: auto dispatch)")
		timeoutMS   = fs.Int64("timeout-ms", 0, "per-request solve deadline")
		traceOn     = fs.Bool("trace", false, "send a traceparent per batch and report the slowest solve's phase breakdown")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *batches < 1 || *batchSize < 1 || *concurrency < 1 {
		return fmt.Errorf("loadgen: batches, batch and concurrency must be positive")
	}

	// Pre-build every batch body so the measured loop is pure HTTP + solve.
	bodies := make([][]byte, *batches)
	for b := 0; b < *batches; b++ {
		batch := server.BatchRequest{Algorithm: *algo}
		for r := 0; r < *batchSize; r++ {
			in, err := workload.ByName(inst.family, inst.seed+int64(b**batchSize+r), inst.cfg)
			if err != nil {
				return err
			}
			inst := in
			batch.Requests = append(batch.Requests, server.Request{
				Kind: *kind, Instance: &inst, Budget: *budget, TimeoutMS: *timeoutMS,
			})
		}
		data, err := json.Marshal(batch)
		if err != nil {
			return err
		}
		bodies[b] = data
	}

	// latencies[b] > 0 only for batches that came back 200 and decoded —
	// rejected or failed round-trips must not dilute the percentiles,
	// and throughput counts only requests the daemon actually solved.
	var (
		latencies   = make([]time.Duration, *batches)
		completed   atomic.Int64 // requests solved and certified
		httpErrs    atomic.Int64
		solveErrs   atomic.Int64
		uncertified atomic.Int64
		next        atomic.Int64
		wg          sync.WaitGroup

		// Under -trace the daemon echoes each request's span tree; the
		// workers race to keep the slowest one for the closing report.
		slowMu    sync.Mutex
		slowTrace *trace.Node
		slowAlg   string
	)
	client := &http.Client{Timeout: 5 * time.Minute}
	start := time.Now()
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				b := int(next.Add(1)) - 1
				if b >= *batches {
					return
				}
				t0 := time.Now()
				req, err := http.NewRequest(http.MethodPost, *addr+"/v1/solve/batch", bytes.NewReader(bodies[b]))
				if err != nil {
					httpErrs.Add(1)
					continue
				}
				req.Header.Set("Content-Type", "application/json")
				if *traceOn {
					req.Header.Set(trace.TraceparentHeader, newTraceparent())
				}
				resp, err := client.Do(req)
				if err != nil {
					httpErrs.Add(1)
					continue
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					httpErrs.Add(1)
					continue
				}
				var out server.BatchResponse
				if err := json.Unmarshal(body, &out); err != nil {
					httpErrs.Add(1)
					continue
				}
				latencies[b] = time.Since(t0)
				for _, res := range out.Results {
					switch {
					case res.Error != "":
						solveErrs.Add(1)
					case !res.Certified:
						uncertified.Add(1)
					default:
						completed.Add(1)
					}
					if res.Trace != nil {
						slowMu.Lock()
						if slowTrace == nil || res.Trace.DurationNS > slowTrace.DurationNS {
							slowTrace, slowAlg = res.Trace, res.Algorithm
						}
						slowMu.Unlock()
					}
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	done := make([]time.Duration, 0, len(latencies))
	for _, d := range latencies {
		if d > 0 {
			done = append(done, d)
		}
	}
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	sent := int64(*batches) * int64(*batchSize)
	fmt.Fprintf(out, "loadgen: %d batches × %d requests, concurrency %d against %s\n",
		*batches, *batchSize, *concurrency, *addr)
	fmt.Fprintf(out, "elapsed=%v sent=%d completed=%d throughput=%.1f req/s (%.1f batches/s)\n",
		elapsed.Round(time.Millisecond), sent, completed.Load(),
		float64(completed.Load())/elapsed.Seconds(),
		float64(len(done))/elapsed.Seconds())
	if len(done) > 0 {
		fmt.Fprintf(out, "batch latency p50=%v p90=%v p99=%v max=%v\n",
			percentile(done, 0.50), percentile(done, 0.90),
			percentile(done, 0.99), done[len(done)-1])
	}
	if *traceOn && slowTrace != nil {
		fmt.Fprintf(out, "slowest solve: %.3fms algorithm=%s phases: %s\n",
			float64(slowTrace.DurationNS)/1e6, slowAlg, phaseBreakdown(slowTrace))
	}
	fmt.Fprintf(out, "errors: http=%d solve=%d uncertified=%d\n",
		httpErrs.Load(), solveErrs.Load(), uncertified.Load())
	if httpErrs.Load() > 0 || solveErrs.Load() > 0 || uncertified.Load() > 0 {
		return fmt.Errorf("loadgen: %d transport errors, %d solve errors, %d uncertified results",
			httpErrs.Load(), solveErrs.Load(), uncertified.Load())
	}
	return nil
}

// percentile returns the p-th percentile of the sorted latency sample
// using the nearest-rank definition: the smallest value with at least
// p·n samples at or below it. Truncating interpolation (the previous
// i = ⌊p·(n−1)⌋) reads the wrong rank for tail percentiles — p99 of 50
// samples landed on index 48, under-reporting the tail by one slot.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
