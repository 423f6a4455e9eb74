package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"

	"repro/internal/job"
	"repro/internal/journal"
	"repro/internal/server"
)

// endToEndMetrics are the --trace 0 metrics, every workload.
var endToEndMetrics = []struct{ name, unit string }{
	{"jobs_per_s", "jobs/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"quality_ratio", "ratio"},
	{"setup_s", "s"},
	{"rss_peak_mb", "MB"},
}

// perLayerMetrics are the --trace 1 metrics. Every workload reports all
// of them; a layer the workload does not run reports 0.
var perLayerMetrics = []struct{ name, unit string }{
	{"server.decode_us_per_job", "us"},
	{"server.certify_us_per_job", "us"},
	{"server.encode_us_per_job", "us"},
	{"server.handler_share", "ratio"},
	{"server.stream_codec_us_per_arrival", "us"},
	{"server.stream_queue_us_p50", "us"},
	{"server.stream_flush_us_p50", "us"},
	{"busytime.solve_us_per_job", "us"},
	{"busytime.batch_pool_efficiency", "ratio"},
	{"busytime.unaccounted_share", "ratio"},
	{"reopt.fingerprint_us_per_job", "us"},
	{"reopt.nearest_us_per_call", "us"},
	{"reopt.repair_us_per_job", "us"},
	{"reopt.hit_share", "ratio"},
	{"reopt.repair_share", "ratio"},
	{"reopt.miss_share", "ratio"},
	{"igraph.classify_us_per_job", "us"},
	{"igraph.components_us_per_job", "us"},
	{"igraph.edges_per_job", "count"},
	{"core.place_us_per_job", "us"},
	{"core.place.first-fit_us_per_job", "us"},
	{"core.place_attempts_per_component", "count"},
	{"core.bound_us_per_job", "us"},
	{"online.offer_us_per_arrival", "us"},
	{"online.open_machines_mean", "count"},
	{"journal.seal_us_per_event", "us"},
	{"journal.append_us_per_call", "us"},
	{"journal.appends_per_event", "ratio"},
	{"journal.bytes_per_event", "bytes"},
	{"journal.replay_s", "s"},
	{"runtime.alloc_bytes_per_job", "bytes"},
	{"runtime.gc_cycles_per_kjob", "count"},
	{"runtime.gc_pause_share", "ratio"},
	{"bench.trace_overhead_share", "ratio"},
}

// The layer-by-layer replay covers the first part of each client's
// traced pass, keeping a traced run well inside its time limit:
// per-job and per-arrival means need far fewer requests than a pass
// serves. The caps are whole cycles of the request lists' structure.
const (
	replayedSolves   = 200 // solve-cold requests: ten dense cycles
	replayedBatches  = 128 // resubmit batches: sixteen edit cycles
	replayedSessions = 6   // stream sessions
)

// traced is the --trace 1 run: one set-up, an untraced pass, a traced
// pass through the journal.Store and http.Handler wrappers, then a
// layer-by-layer replay of the traced pass's requests.
func (b *bench) traced() (*result, error) {
	res := newResult(b.spec.name)
	for _, m := range perLayerMetrics {
		res.set(m.name, 0, m.unit)
	}
	d, drv, _, err := b.warmSetup(true)
	if err != nil {
		return nil, err
	}
	b.envLines(res, d.jf.fs)
	res.set("journal.replay_s", d.replay.Seconds(), "s")
	half := (b.count + 1) / 2

	runtime.GC()
	m0 := readMem()
	pa, stealA := timedPass(res, drv, d.url, 0, half)
	mem := memBetween(m0, readMem())
	b.check(res, pa, drv, d)
	pa.rechecks = nil

	th := newTimedHandler()
	urlB, stopB, err := d.serveWrapped(th)
	if err != nil {
		d.stop()
		return nil, err
	}
	size0 := d.jf.size()
	d.timed.on.Store(true)
	pb, stealB := timedPass(res, drv, urlB, half, half)
	d.timed.on.Store(false)
	size1 := d.jf.size()
	stopB()
	b.check(res, pb, drv, d)
	if err := d.stop(); err != nil {
		return nil, err
	}

	// Both passes' rates are per second of granted CPU time, as in an
	// untraced run, so host steal does not pass for tracing overhead.
	jpsA, jpsB := grantedRate(pa, stealA), grantedRate(pb, stealB)
	res.note("untraced pass: %d ops, jobs_per_s %.1f; traced pass: %d ops, jobs_per_s %.1f", pa.attempted, jpsA, pb.attempted, jpsB)
	res.set("bench.trace_overhead_share", 1-jpsB/jpsA, "ratio")
	res.set("runtime.alloc_bytes_per_job", float64(mem.allocBytes)/float64(pa.jobs), "bytes")
	res.set("runtime.gc_cycles_per_kjob", 1000*float64(mem.gcCycles)/float64(pa.jobs), "count")
	res.set("runtime.gc_pause_share", float64(mem.pauseNS)/float64(pa.wall.Nanoseconds()), "ratio")

	rec := newRecorder()
	switch w := drv.(type) {
	case *streamRunner:
		err = b.replayStream(res, rec, pb, d, size1-size0, half)
	case *resubmitRunner:
		err = b.replaySolves(res, rec, w, pb, th.share("/v1/solve/batch", pb.rtNS), half)
	default:
		err = b.replaySolves(res, rec, w, pb, th.share("/v1/solve", pb.rtNS), half)
	}
	if err != nil {
		return nil, err
	}
	b.rollupNotes(res, rec.spans)
	path, err := writeSpans(b.outDir, fmt.Sprintf("spans-%s-seed%d.json", b.spec.name, b.seed), rec.spans)
	if err != nil {
		return nil, err
	}
	res.note("spans: %d written to %s", len(rec.spans), path)
	return res, nil
}

// share is the handler's time on path over the clients' round trips.
func (h *timedHandler) share(path string, rtNS int64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if rtNS == 0 {
		return 0
	}
	return float64(h.totalNS[path]) / float64(rtNS)
}

// replaySolves replays the traced pass of a solve workload layer by
// layer and sets the solve-path layer metrics.
func (b *bench) replaySolves(res *result, rec *recorder, drv runner, pb *passStats, handlerShare float64, half int) error {
	rp := newReplayer(rec)
	req := 0
	var err error
	switch drv.(type) {
	case *resubmitRunner:
		err = b.replayResubmit(rp, &req, half)
	default:
		err = b.replayCold(rp, &req, half)
	}
	if err != nil {
		return err
	}
	rows := rollup(rec.spans)
	perJob := func(name string, jobs int64) float64 {
		row := rows[name]
		if row == nil || jobs == 0 {
			return 0
		}
		return float64(row.TotalNS) / 1e3 / float64(jobs)
	}
	res.set("server.handler_share", handlerShare, "ratio")
	res.set("server.decode_us_per_job", perJob("server.decode", rp.jobs), "us")
	res.set("server.certify_us_per_job", perJob("server.certify", rp.jobs), "us")
	res.set("server.encode_us_per_job", perJob("server.encode", rp.jobs), "us")
	res.set("busytime.solve_us_per_job", perJob("busytime.solve", rp.jobs), "us")
	if rp.batchWallNS > 0 {
		res.set("busytime.batch_pool_efficiency", float64(rp.batchItemNS)/float64(int64(runtime.GOMAXPROCS(0))*rp.batchWallNS), "ratio")
	}
	if rp.solveNS > 0 {
		res.set("busytime.unaccounted_share", 1-float64(rp.innerNS)/float64(rp.solveNS), "ratio")
	}
	res.set("reopt.fingerprint_us_per_job", perJob("reopt.fingerprint", rp.jobs), "us")
	if row := rows["reopt.nearest"]; row != nil {
		res.set("reopt.nearest_us_per_call", float64(row.TotalNS)/1e3/float64(row.Calls), "us")
	}
	res.set("reopt.repair_us_per_job", perJob("reopt.repair", rp.outcomeJobs["repair"]), "us")
	total := float64(rp.outcomes["hit"] + rp.outcomes["repair"] + rp.outcomes["miss"])
	res.set("reopt.hit_share", float64(rp.outcomes["hit"])/total, "ratio")
	res.set("reopt.repair_share", float64(rp.outcomes["repair"])/total, "ratio")
	res.set("reopt.miss_share", float64(rp.outcomes["miss"])/total, "ratio")
	// Classification runs on every miss and repair, once more per
	// component of a disconnected miss.
	res.set("igraph.classify_us_per_job", perJob("igraph.classify", rp.outcomeJobs["miss"]+rp.outcomeJobs["repair"]), "us")
	res.set("igraph.components_us_per_job", perJob("igraph.components", rp.edgeJobs), "us")
	if rp.edgeJobs > 0 {
		res.set("igraph.edges_per_job", float64(rp.edges)/float64(rp.edgeJobs), "count")
	}
	if row := rows["core.place"]; row != nil {
		res.set("core.place_us_per_job", float64(row.TotalNS)/1e3/float64(rp.placedJobs), "us")
	}
	res.set("core.place.first-fit_us_per_job", perJob("core.place.first-fit", rp.algJobs["first-fit"]), "us")
	if rp.components > 0 {
		res.set("core.place_attempts_per_component", float64(rp.attempts)/float64(rp.components), "count")
	}
	res.set("core.bound_us_per_job", perJob("core.bound", rp.jobs), "us")
	res.note("replay: %d solve requests over %d jobs; outcomes %v; %d paths diverged from the solver's, %d cold schedules differ, %d uncertified",
		req, rp.jobs, rp.outcomes, rp.diverged, rp.scheduleDiff, rp.uncertified)
	if rp.uncertified > 0 || rp.scheduleDiff > 0 {
		res.Failed += rp.uncertified + rp.scheduleDiff
		res.Correct = false
	}
	algs := make([]string, 0, len(rp.algJobs))
	for a := range rp.algJobs {
		algs = append(algs, a)
	}
	sort.Strings(algs)
	for _, a := range algs {
		res.note("placement %s: %.3f us/job over %d component jobs", a, perJob("core.place."+a, rp.algJobs[a]), rp.algJobs[a])
	}
	return nil
}

// replayCold replays solve-cold's traced pass: the replay Solver first
// solves the warm-up requests untimed, filling its cache as the
// daemon's was.
func (b *bench) replayCold(rp *replayer, req *int, half int) error {
	for c := 0; c < clients; c++ {
		for k := 0; k < b.sizes.warmCold; k++ {
			if _, err := rp.prime(coldInstance(b.seed, streamWarm, int64(c), k)); err != nil {
				return err
			}
		}
	}
	for c := 0; c < clients; c++ {
		for k := half; k < half+min(half, replayedSolves); k++ {
			in := coldInstance(b.seed, streamTimed, int64(c), k)
			body, err := json.Marshal(server.Request{Instance: &in})
			if err != nil {
				return err
			}
			if err := rp.solve(*req, body); err != nil {
				return fmt.Errorf("replaying solve %d/%d: %w", c, k, err)
			}
			*req++
		}
	}
	return nil
}

// replayResubmit replays resubmit's traced pass. Each client's bases
// are advanced through the untraced pass's edits without solving; the
// replay Solver then caches each base's latest version, as the daemon
// had, before the traced batches are replayed.
func (b *bench) replayResubmit(rp *replayer, req *int, half int) error {
	for c := 0; c < clients; c++ {
		latest := make([]job.Instance, len(batchKinds))
		for i := range latest {
			latest[i] = resubmitBase(b.seed, int64(c), i)
		}
		nextID := 1 << 30
		for k := 0; k < half; k++ {
			for _, e := range resubmitBatch(b.seed, int64(c), k, latest, &nextID) {
				latest[e.base] = e.next
			}
		}
		ids := make([]string, len(latest))
		for i, in := range latest {
			id, err := rp.prime(in)
			if err != nil {
				return err
			}
			ids[i] = id
		}
		for k := half; k < half+min(half, replayedBatches); k++ {
			edits := resubmitBatch(b.seed, int64(c), k, latest, &nextID)
			body, err := batchBody(edits, ids, newDigest())
			if err != nil {
				return err
			}
			results, err := rp.batch(*req, body)
			if err != nil {
				return fmt.Errorf("replaying batch %d/%d: %w", c, k, err)
			}
			for i, e := range edits {
				latest[e.base] = e.next
				ids[e.base] = results[i].ID
			}
			*req++
		}
	}
	return nil
}

// replayStream replays the first sessions of each client's traced pass
// arrival by arrival and sets the stream-path layer metrics; the append
// and byte counts come from the served traced pass.
func (b *bench) replayStream(res *result, rec *recorder, pb *passStats, d *daemon, bytes int64, half int) error {
	jf, err := newJournalFile(b.outDir, nil)
	if err != nil {
		return err
	}
	defer jf.close()
	store, err := journal.OpenFileStore(jf.path)
	if err != nil {
		return err
	}
	defer store.Close()
	sr := &streamReplayer{rec: rec, store: store}
	req := 0
	for c := 0; c < clients; c++ {
		for k := half; k < half+min(half, replayedSessions); k++ {
			open := streamOpen(b.seed, streamTimed, int64(c), k)
			if req, err = sr.session(req, open, newArrivalGen(b.seed, streamTimed, int64(c), k)); err != nil {
				return fmt.Errorf("replaying session %s: %w", open.Session, err)
			}
		}
	}
	rows := rollup(rec.spans)
	perArrival := func(names ...string) float64 {
		var ns int64
		for _, n := range names {
			if row := rows[n]; row != nil {
				ns += row.TotalNS
			}
		}
		return float64(ns) / 1e3 / float64(sr.arrivals)
	}
	res.set("server.stream_codec_us_per_arrival", perArrival("server.stream_decode", "server.stream_encode"), "us")
	q50, _ := percentile(sortedCopy(pb.queueNS), 0.5)
	f50, _ := percentile(sortedCopy(pb.flushNS), 0.5)
	res.set("server.stream_queue_us_p50", float64(q50)/1e3, "us")
	res.set("server.stream_flush_us_p50", float64(f50)/1e3, "us")
	res.set("online.offer_us_per_arrival", perArrival("online.offer"), "us")
	res.set("online.open_machines_mean", float64(pb.openSum)/float64(pb.events), "count")
	res.set("journal.seal_us_per_event", perArrival("journal.seal"), "us")
	ts := d.timed
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.appends > 0 && ts.events > 0 {
		res.set("journal.append_us_per_call", float64(ts.totalNS)/1e3/float64(ts.appends), "us")
		res.set("journal.appends_per_event", float64(ts.appends)/float64(ts.events), "ratio")
		res.set("journal.bytes_per_event", float64(bytes)/float64(ts.events), "bytes")
	}
	res.note("replay: %d arrivals over %d sessions; served traced pass: %d appends of %d records (%d events)",
		sr.arrivals, min(half, replayedSessions)*clients, ts.appends, ts.records, ts.events)
	return nil
}

// rollupNotes prints the replay's per-span rollup: calls, total and self
// time.
func (b *bench) rollupNotes(res *result, spans []span) {
	rows := rollup(spans)
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return rows[names[i]].SelfNS > rows[names[j]].SelfNS })
	for _, n := range names {
		r := rows[n]
		res.note("span %-34s calls %8d total %10.3f ms self %10.3f ms", n, r.Calls,
			float64(r.TotalNS)/1e6, float64(r.SelfNS)/1e6)
	}
}
