package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	busytime "repro"
	"repro/internal/core"
	"repro/internal/igraph"
	"repro/internal/job"
	"repro/internal/journal"
	"repro/internal/online"
	"repro/internal/registry"
	"repro/internal/reopt"
	"repro/internal/server"
	"repro/internal/trace"
)

// recorder keeps the replay's spans in memory; they are written out
// when the run ends.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) now() int64 { return time.Since(r.origin).Nanoseconds() }

func (r *recorder) begin(name string, req, parent int) int {
	r.spans = append(r.spans, span{Name: name, Req: req, Parent: parent, Start: r.now()})
	return len(r.spans) - 1
}

// end closes the span and returns its duration.
func (r *recorder) end(id int) int64 {
	r.spans[id].End = r.now()
	return r.spans[id].End - r.spans[id].Start
}

// add records a span timed elsewhere, given in wall-clock nanoseconds.
func (r *recorder) add(name string, req, parent int, startUnixNS, durNS int64) {
	start := startUnixNS - r.origin.UnixNano()
	r.spans = append(r.spans, span{Name: name, Req: req, Parent: parent, Start: start, End: start + durNS})
}

// call times fn as a span and returns its duration.
func (r *recorder) call(name string, req, parent int, fn func()) int64 {
	id := r.begin(name, req, parent)
	fn()
	return r.end(id)
}

// replayer calls each layer's exported functions in the order a
// request's path reaches them, on the same input, timing every call.
// Its Solver is built like busyd's; its mirror cache receives the same
// entries the Solver's reopt cache does, so the reopt lookups it times
// scan a cache of the same shape.
type replayer struct {
	rec      *recorder
	solver   *busytime.Solver
	mirror   *reopt.Cache
	mirrorID map[string]string // solver result id -> mirror entry id

	jobs         int64 // jobs in replayed solve requests
	outcomes     map[string]int
	outcomeJobs  map[string]int64
	innerNS      int64 // Σ inner layer calls
	solveNS      int64 // Σ per-request solve time
	batchItemNS  int64 // Σ per-item solve time under SolveBatch
	batchWallNS  int64 // Σ SolveBatch wall time
	components   int64
	attempts     int64
	edges        int64
	edgeJobs     int64
	algJobs      map[string]int64
	placedJobs   int64
	diverged     int // requests whose replayed path left the solver's
	uncertified  int
	scheduleDiff int
}

func newReplayer(rec *recorder) *replayer {
	return &replayer{
		rec:         rec,
		solver:      busytime.NewSolver(busytime.WithParallelism(0), busytime.WithReoptimization(512)),
		mirror:      reopt.NewCache(512),
		mirrorID:    map[string]string{},
		outcomes:    map[string]int{},
		outcomeJobs: map[string]int64{},
		algJobs:     map[string]int64{},
	}
}

// nearLimit is the Solver's near-hit threshold: an eighth of the
// submission, at least 2.
func nearLimit(n int) int {
	if l := n / 8; l > 2 {
		return l
	}
	return 2
}

// prime solves a request untimed and mirrors its cache entry, bringing
// the replay's caches to the served daemon's state.
func (rp *replayer) prime(in job.Instance) (string, error) {
	res, err := rp.solver.Solve(context.Background(), busytime.Request{Instance: in})
	if err != nil {
		return "", err
	}
	canon, perm := reopt.Canonical(in)
	rp.store(in, canon, perm, reopt.FingerprintCanon(in.G, canon, ""), res.Schedule, res)
	return res.ID, nil
}

// store mirrors a cached result, as the Solver stores it.
func (rp *replayer) store(in job.Instance, canon []reopt.CanonJob, perm []int, fp string, sch core.Schedule, res busytime.Result) {
	asg, err := reopt.CanonicalAssignment(sch, perm)
	if err != nil {
		return
	}
	id := rp.mirror.Store(reopt.Entry{Fingerprint: fp, G: in.G, Jobs: canon, Machine: asg,
		Algorithm: res.Algorithm, Class: res.Class, Cost: res.Cost})
	if res.ID != "" {
		rp.mirrorID[res.ID] = id
	}
}

// solve replays one POST /v1/solve: decode, the Solver call, the inner
// layers along the path the Solver took, certify, encode.
func (rp *replayer) solve(req int, body []byte) error {
	root := rp.rec.begin("request", req, -1)
	defer rp.rec.end(root)
	var wreq server.Request
	var sreq busytime.Request
	var err error
	rp.rec.call("server.decode", req, root, func() {
		if err = json.Unmarshal(body, &wreq); err == nil {
			sreq, err = wreq.ToSolverRequest()
		}
	})
	if err != nil {
		return err
	}
	var res busytime.Result
	solveNS := rp.rec.call("busytime.solve", req, root, func() {
		res, err = rp.solver.Solve(trace.Enable(context.Background()), sreq)
	})
	if err != nil {
		return err
	}
	rp.solveNS += solveNS
	rp.inner(req, root, sreq, res)
	return rp.certifyEncode(req, root, res)
}

// certifyEncode replays the handler's certification and response
// encoding of one result.
func (rp *replayer) certifyEncode(req, root int, results ...busytime.Result) error {
	wires := make([]server.Result, len(results))
	rp.rec.call("server.certify", req, root, func() {
		for i := range results {
			wires[i] = server.WireResult(results[i])
		}
	})
	var buf bytes.Buffer
	var err error
	rp.rec.call("server.encode", req, root, func() {
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		if len(wires) == 1 {
			err = enc.Encode(wires[0])
		} else {
			err = enc.Encode(server.BatchResponse{Results: wires})
		}
	})
	for _, w := range wires {
		if !w.Certified {
			rp.uncertified++
		}
	}
	return err
}

// batch replays one POST /v1/solve/batch.
func (rp *replayer) batch(req int, body []byte) ([]busytime.Result, error) {
	root := rp.rec.begin("request", req, -1)
	defer rp.rec.end(root)
	var env struct {
		Requests []json.RawMessage `json:"requests"`
	}
	var reqs []busytime.Request
	var err error
	rp.rec.call("server.decode", req, root, func() {
		if err = json.Unmarshal(body, &env); err != nil {
			return
		}
		reqs = make([]busytime.Request, len(env.Requests))
		for i, raw := range env.Requests {
			var wreq server.Request
			if err = json.Unmarshal(raw, &wreq); err != nil {
				return
			}
			if reqs[i], err = wreq.ToSolverRequest(); err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	var results []busytime.Result
	bsp := rp.rec.begin("busytime.solve", req, root)
	results, err = rp.solver.SolveBatch(trace.Enable(context.Background()), reqs)
	rp.batchWallNS += rp.rec.end(bsp)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		if res.Err != nil {
			return nil, fmt.Errorf("batch item %d: %w", i, res.Err)
		}
		if res.Trace != nil {
			// The items ran in parallel on the Solver's pool; their
			// intervals overlap under the batch span.
			rp.rec.add("busytime.solve_item", req, bsp, res.Trace.StartUnixNS, res.Trace.DurationNS)
			rp.batchItemNS += res.Trace.DurationNS
			rp.solveNS += res.Trace.DurationNS
		}
	}
	for i := range results {
		rp.inner(req, root, reqs[i], results[i])
	}
	return results, rp.certifyEncode(req, root, results...)
}

// inner replays the layers under the Solver along the path it took for
// this request (hit, repair or miss), in path order.
func (rp *replayer) inner(req, parent int, sreq busytime.Request, res busytime.Result) {
	in := sreq.Instance
	n := int64(len(in.Jobs))
	rp.jobs += n
	rp.outcomes[res.CacheOutcome]++
	rp.outcomeJobs[res.CacheOutcome] += n
	var innerNS int64
	call := func(name string, fn func()) { innerNS += rp.rec.call(name, req, parent, fn) }

	call("busytime.validate", func() { _ = in.Validate() })
	var canon []reopt.CanonJob
	var perm []int
	var fp string
	call("reopt.fingerprint", func() {
		canon, perm = reopt.Canonical(in)
		fp = reopt.FingerprintCanon(in.G, canon, "")
	})
	// The lookups in the Solver's order: the named base, the exact
	// fingerprint, then the nearest scan.
	var base reopt.Entry
	outcome := busytime.CacheMiss
	call("reopt.nearest", func() {
		if sreq.BaseID != "" {
			if e, ok := rp.mirror.LookupID(rp.mirrorID[sreq.BaseID]); ok {
				base, outcome = e, busytime.CacheRepair
				if e.Fingerprint == fp {
					outcome = busytime.CacheHit
				}
				return
			}
		}
		if e, ok := rp.mirror.Lookup(fp); ok {
			base, outcome = e, busytime.CacheHit
			return
		}
		if e, _, ok := rp.mirror.Nearest(in.G, canon, nearLimit(len(in.Jobs))); ok {
			base, outcome = e, busytime.CacheRepair
		}
	})
	if outcome != res.CacheOutcome {
		rp.diverged++
	}
	var sch core.Schedule
	var err error
	switch outcome {
	case busytime.CacheHit:
		call("reopt.remap", func() { sch, err = reopt.RemapAssignment(base, in, perm) })
	case busytime.CacheRepair:
		call("reopt.repair", func() {
			var rep reopt.Repaired
			if rep, err = reopt.Repair(context.Background(), base, in, canon, perm, sreq.TransitionBudget); err == nil {
				sch = rep.Schedule
			}
		})
		call("igraph.classify", func() { _ = igraph.Classify(in.Jobs) })
	default:
		var class igraph.Class
		call("igraph.classify", func() { class = igraph.Classify(in.Jobs) })
		var comps []job.Instance
		call("igraph.components", func() { comps = igraph.SplitComponents(in) })
		rp.edges += edgesOf(in.Jobs)
		rp.edgeJobs += n
		place := rp.rec.begin("core.place", req, parent)
		sch, err = rp.place(req, place, in, class, comps)
		innerNS += rp.rec.end(place)
		rp.placedJobs += n
	}
	if err != nil {
		// The Solver fell back to a cold solve; the replay reports it
		// as a divergence rather than guessing the fallback's timing.
		rp.diverged++
		rp.innerNS += innerNS
		return
	}
	call("core.bound", func() {
		_ = sch.Cost()
		_ = sch.Machines()
		_ = in.LowerBound()
	})
	if outcome != busytime.CacheHit {
		call("reopt.store", func() { rp.store(in, canon, perm, fp, sch, res) })
	}
	if outcome == busytime.CacheMiss && !sameSchedule(sch, res.Schedule) {
		rp.scheduleDiff++
	}
	rp.innerNS += innerNS
}

// place replays auto dispatch's placement: each component walks the
// registry's fallback chain for its class, strongest first, until an
// algorithm accepts it; disconnected instances merge the components.
func (rp *replayer) place(req, parent int, in job.Instance, class igraph.Class, comps []job.Instance) (core.Schedule, error) {
	chain := func(comp job.Instance, class igraph.Class) (core.Schedule, string, error) {
		rp.components++
		for _, alg := range registry.ForAll(registry.MinBusy, class) {
			rp.attempts++
			rp.algJobs[alg.Name] += int64(len(comp.Jobs))
			var sch core.Schedule
			var err error
			rp.rec.call("core.place."+alg.Name, req, parent, func() {
				sch, err = alg.SolveMinBusy(context.Background(), comp)
			})
			if err == nil {
				return sch, alg.Name, nil
			}
		}
		return core.Schedule{}, "", fmt.Errorf("no algorithm accepted a %s component", class)
	}
	if len(comps) <= 1 {
		sch, _, err := chain(in, class)
		return sch, err
	}
	subs := make([]core.Schedule, len(comps))
	names := make([]string, len(comps))
	for i, comp := range comps {
		var cls igraph.Class
		rp.rec.call("igraph.classify", req, parent, func() { cls = igraph.Classify(comp.Jobs) })
		var err error
		if subs[i], names[i], err = chain(comp, cls); err != nil {
			return core.Schedule{}, err
		}
	}
	var sch core.Schedule
	rp.rec.call("core.merge", req, parent, func() { sch, _ = core.MergeComponents(in, comps, subs, names) })
	return sch, nil
}

func sameSchedule(a, b core.Schedule) bool {
	if len(a.Machine) != len(b.Machine) {
		return false
	}
	for i := range a.Machine {
		if a.Machine[i] != b.Machine[i] {
			return false
		}
	}
	return true
}

// streamReplayer replays stream sessions arrival by arrival: decode,
// offer, seal, append (one commit per window of arrivals), encode.
type streamReplayer struct {
	rec      *recorder
	store    *journal.FileStore
	jf       *journalFile
	arrivals int64
}

func (sr *streamReplayer) session(req0 int, open server.StreamOpen, gen *arrivalGen) (int, error) {
	p := journal.OpenParams{G: open.G, Strategy: open.Strategy, Budget: open.Budget}
	sess, _, err := journal.SessionFor(p)
	if err != nil {
		return req0, err
	}
	jw, err := journal.NewWriter(sr.store, open.Session, p)
	if err != nil {
		return req0, err
	}
	req := req0
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	for i := 0; i < sessionArrivals; i++ {
		line, err := json.Marshal(gen.next())
		if err != nil {
			return req, err
		}
		root := sr.rec.begin("arrival", req, -1)
		var j job.Job
		sr.rec.call("server.stream_decode", req, root, func() {
			var arr server.StreamArrival
			if err = json.Unmarshal(line, &arr); err == nil {
				j, err = arr.ToJob()
			}
		})
		var ev online.Event
		if err == nil {
			sr.rec.call("online.offer", req, root, func() { ev, err = sess.Offer(j) })
		}
		if err == nil {
			sr.rec.call("journal.seal", req, root, func() { _, err = jw.StageEvent(journal.ArrivalOf(j), ev) })
		}
		if err == nil && ((i+1)%streamWindow == 0 || i+1 == sessionArrivals) {
			sr.rec.call("journal.append", req, root, func() { err = jw.Commit() })
		}
		if err == nil {
			buf.Reset()
			sr.rec.call("server.stream_encode", req, root, func() { err = enc.Encode(server.WireStreamEvent(ev)) })
		}
		sr.rec.end(root)
		if err != nil {
			return req, err
		}
		sr.arrivals++
		req++
	}
	_, err = jw.Close(sess.Summary())
	return req, err
}

// writeSpans dumps the recorded spans as JSON under dir.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	data, err := json.Marshal(spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// memDelta is the Go runtime's allocation and GC activity over a pass.
type memDelta struct {
	allocBytes uint64
	gcCycles   uint32
	pauseNS    uint64
	gcCPUShare float64 // the runtime's estimate of CPU time spent on GC
}

// memReading is a snapshot of the runtime's memory and GC counters.
type memReading struct {
	ms  runtime.MemStats
	cpu []metrics.Sample
}

func readMem() memReading {
	r := memReading{cpu: []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}}
	runtime.ReadMemStats(&r.ms)
	metrics.Read(r.cpu)
	return r
}

func memBetween(a, b memReading) memDelta {
	d := memDelta{
		allocBytes: b.ms.TotalAlloc - a.ms.TotalAlloc,
		gcCycles:   b.ms.NumGC - a.ms.NumGC,
		pauseNS:    b.ms.PauseTotalNs - a.ms.PauseTotalNs,
	}
	if total := b.cpu[1].Value.Float64() - a.cpu[1].Value.Float64(); total > 0 {
		d.gcCPUShare = (b.cpu[0].Value.Float64() - a.cpu[0].Value.Float64()) / total
	}
	return d
}
