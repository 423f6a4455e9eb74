package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"repro/internal/job"
	"repro/internal/journal"
	"repro/internal/server"
	"repro/internal/workload"
)

// Every request is a pure function of (seed, workload, client, index): a
// client generates its next request just before sending it, so a run
// never holds the whole request list in memory, and the same seed always
// produces the same list.

// subRand returns a generator seeded from the run seed and a path of
// integers naming one draw.
func subRand(seed int64, path ...int64) *rand.Rand {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	for _, p := range path {
		binary.LittleEndian.PutUint64(b[:], uint64(p))
		h.Write(b[:])
	}
	return rand.New(rand.NewSource(int64(h.Sum64() & math.MaxInt64)))
}

// logQuantile returns the u-quantile of the log-uniform distribution on
// [lo, hi], rounded to an integer.
func logQuantile(lo, hi int, u float64) int {
	return int(math.Round(float64(lo) * math.Exp(u*math.Log(float64(hi)/float64(lo)))))
}

// vanDerCorput returns the base-2 radical inverse of i+1, a sequence
// spreading evenly over (0, 1).
func vanDerCorput(i int) float64 {
	var v, f float64 = 0, 0.5
	for n := i + 1; n > 0; n /= 2 {
		v += f * float64(n%2)
		f /= 2
	}
	return v
}

// Request streams and their index paths. The warm-up and the two passes
// of a traced run draw from disjoint index ranges of one stream.
const (
	streamWarm int64 = iota + 1
	streamTimed
	streamBase
	streamEdit
	streamSession
	streamHistory
)

// coldBlock is the stratification unit of solve-cold: nine sparse
// requests, one per (family, g) pair, and one dense request.
const coldBlock = 10

var (
	sparseFamilies = []string{"general", "cloud", "proper"}
	sparseGs       = []int{2, 4, 8}
	denseFamilies  = []string{"lightpaths", "one-sided", "proper-clique", "clique"}
)

// coldInstance is the k-th solve-cold instance of a client's stream.
// Each block of ten holds nine sparse requests, one per (family, g)
// pair, and one dense request. The shape of the list is the same for
// every seed: over nine blocks each sparse pair takes n from each of
// nine log-uniform strata of [200, 4000], and over twenty blocks each
// dense family takes n from each of five strata of [500, 1500]. The seed
// fixes the order within a block and every instance's content, so the
// mix, and the work, of a run hardly move between seeds while every
// instance differs.
func coldInstance(seed int64, stream, client int64, k int) job.Instance {
	block, slot := k/coldBlock, k%coldBlock
	pos := subRand(seed, stream, client, int64(block)).Perm(coldBlock)[slot]
	r := subRand(seed, stream, client, int64(k))
	if pos == 0 {
		// The clients start half a cycle apart, so they rarely solve
		// the same dense shape at once.
		combo := (block + int(client)*10) % 20
		u := (float64(combo/4) + vanDerCorput(block/20)) / 5
		return denseInstance(denseFamilies[combo%4], r.Int63(), logQuantile(500, 1500, u))
	}
	pair := pos - 1
	u := (float64((pair+block)%9) + vanDerCorput(block/9)) / 9
	return sparseInstance(sparseFamilies[pair/3], r.Int63(), logQuantile(200, 4000, u), sparseGs[pair%3])
}

// sparseInstance generates a sparse family at about 7.5 interval-graph
// edges per job: the horizon grows with n so density stays fixed.
func sparseInstance(family string, seed int64, n, g int) job.Instance {
	c := workload.Config{N: n, G: g, MaxLen: 100, MaxTime: int64(n) * 101 / 15}
	switch family {
	case "cloud":
		return workload.Cloud(seed, c)
	case "proper":
		return workload.Proper(seed, c)
	default:
		return workload.General(seed, c)
	}
}

// denseInstance generates a dense family at g = 4. Every dense instance,
// and each of its components, stays far above the clique-set-cover
// enumeration cap (about 106 jobs at g = 4), and lengths come from a wide
// range so that no two instances are near-identical to the reopt cache.
func denseInstance(family string, seed int64, n int) job.Instance {
	c := workload.Config{N: n, G: 4, MaxTime: 200_000, MaxLen: 100_000}
	switch family {
	case "lightpaths":
		return workload.Lightpaths(seed, workload.Config{N: n, G: 4, MaxTime: 4000, MaxLen: 1500})
	case "one-sided":
		return workload.OneSided(seed, c, true)
	case "proper-clique":
		return workload.ProperClique(seed, c)
	default:
		return workload.Clique(seed, c)
	}
}

// Resubmit edit kinds. Each batch edits every base of its client once,
// with the kinds below dealt out in a seeded order.
const (
	editExact        = "exact"         // permuted, time-shifted copy: a hit
	editAdd          = "add"           // one job added after the origin: a repair
	editShift        = "shift"         // one non-first job moved: a repair
	editDropLatest   = "drop-latest"   // the latest-starting job removed: a repair
	editDropEarliest = "drop-earliest" // the earliest job removed: the origin moves, a miss
)

// batchKinds is one batch's deal of edit kinds; its length is the batch
// size and the number of bases each client owns.
var batchKinds = []string{editExact, editExact, editAdd, editAdd, editShift, editShift, editDropLatest, editDropEarliest}

// resubmitBase is the initial version of one of a client's bases. Base
// b has the same size, g and family for every seed: n at the b-th of
// eight log-uniform strata of [500, 2000], general and cloud
// alternating, g = 2 and g = 4 alternating in pairs.
func resubmitBase(seed int64, client int64, b int) job.Instance {
	n := logQuantile(500, 2000, (float64(b)+0.5)/float64(len(batchKinds)))
	c := workload.Config{N: n, G: 2 + 2*(b/2%2), MaxLen: 100, MaxTime: int64(n) * 101 / 15}
	s := subRand(seed, streamBase, client, int64(b)).Int63()
	if b%2 == 1 {
		return workload.Cloud(s, c)
	}
	return workload.General(s, c)
}

// edit is one resubmission: the instance to send, whether it names its
// base explicitly, and the new latest version of the base (unchanged by
// an exact resubmission).
type edit struct {
	kind  string
	base  int
	useID bool
	send  job.Instance
	next  job.Instance
}

// resubmitBatch deals the k-th batch of a client: one edit per base,
// each applied to the base's latest version. The deal is a Latin
// square: every batch holds each kind once, and every base cycles
// through the kinds, from a seeded phase. nextID numbers added jobs.
func resubmitBatch(seed int64, client int64, k int, latest []job.Instance, nextID *int) []edit {
	br := subRand(seed, streamEdit, client, int64(k))
	phase := subRand(seed, streamEdit, client).Intn(len(batchKinds))
	out := make([]edit, len(latest))
	useID := true
	for b := range latest {
		r := subRand(seed, streamEdit, client, int64(k), int64(b))
		e := edit{kind: batchKinds[(b+k+phase)%len(batchKinds)], base: b}
		if e.kind != editExact && e.kind != editDropEarliest {
			// Half of the repairs name their base; the rest rely on the
			// nearest-match scan.
			e.useID = useID
			useID = !useID
		}
		e.next, e.send = applyEdit(r, e.kind, latest[b], nextID)
		out[b] = e
	}
	// Send the edits in a seeded order so kinds do not sit at fixed
	// batch positions.
	order := br.Perm(len(out))
	sorted := make([]edit, len(out))
	for i, j := range order {
		sorted[i] = out[j]
	}
	return sorted
}

// applyEdit returns the base's next version and the instance to send.
func applyEdit(r *rand.Rand, kind string, in job.Instance, nextID *int) (next, send job.Instance) {
	jobs := append([]job.Job(nil), in.Jobs...)
	first, last := 0, 0
	for i, j := range jobs {
		if j.Start() < jobs[first].Start() {
			first = i
		}
		if j.Start() > jobs[last].Start() {
			last = i
		}
	}
	origin, horizon := jobs[first].Start(), jobs[last].Start()
	switch kind {
	case editExact:
		// Permute the jobs and translate the time line: the canonical
		// form is unchanged, so this is a cache hit.
		shift := 1 + r.Int63n(1000)
		send = job.Instance{G: in.G, Jobs: make([]job.Job, len(jobs))}
		for i, p := range r.Perm(len(jobs)) {
			j := jobs[p]
			j.Interval.Start += shift
			j.Interval.End += shift
			send.Jobs[i] = j
		}
		return in, send
	case editAdd:
		s := origin + 1 + r.Int63n(horizon-origin+1)
		j := job.New(*nextID, s, s+1+r.Int63n(100))
		*nextID++
		jobs = append(jobs, j)
	case editShift:
		p := r.Intn(len(jobs))
		for p == first {
			p = r.Intn(len(jobs))
		}
		d := 1 + r.Int63n(20)
		jobs[p].Interval.Start += d
		jobs[p].Interval.End += d
	case editDropLatest:
		jobs = append(jobs[:last], jobs[last+1:]...)
	case editDropEarliest:
		jobs = append(jobs[:first], jobs[first+1:]...)
	default:
		panic(fmt.Sprintf("busybench: unknown edit kind %q", kind))
	}
	next = job.Instance{G: in.G, Jobs: jobs}
	return next, next
}

// Stream sessions: one client runs online-bestfit over unit-weight
// arrivals, the other online-budget over weighted arrivals with a budget.
var streamStrategies = []string{"online-bestfit", "online-budget"}

// sessionArrivals is the length of every streamed session.
const sessionArrivals = 2000

// streamOpen is the header of a client's k-th session; session ids are
// deterministic so journals and chains repeat for a seed.
func streamOpen(seed int64, stream, client int64, k int) server.StreamOpen {
	open := server.StreamOpen{
		G:        4,
		Strategy: streamStrategies[client%int64(len(streamStrategies))],
		Session:  fmt.Sprintf("bench-%d-%d-%d-%d", seed, stream, client, k),
	}
	if open.Strategy == "online-budget" {
		// Admission control rejects about a fifth of the arrivals at
		// this budget.
		open.Budget = int64(sessionArrivals) * 30
	}
	return open
}

// arrivalGen yields a session's arrivals lazily, in start order: gaps
// average 4 ticks and lengths are uniform in [1, 80], so about 10
// arrivals overlap at any time.
type arrivalGen struct {
	r        *rand.Rand
	t        int64
	id       int
	weighted bool
}

func newArrivalGen(seed int64, stream, client int64, k int) *arrivalGen {
	return &arrivalGen{r: subRand(seed, stream, client, int64(k), 1), weighted: client%2 == 1}
}

func (g *arrivalGen) next() server.StreamArrival {
	g.t += g.r.Int63n(9)
	a := server.StreamArrival{ID: g.id, Start: g.t, End: g.t + 1 + g.r.Int63n(80), Weight: 1}
	if g.weighted {
		a.Weight = 1 + g.r.Int63n(8)
	}
	g.id++
	return a
}

// historyLog builds the seeded journal a restarted daemon replays at
// boot: closed sessions of perSession arrivals each, encoded as the
// file store's NDJSON log. The offline harness (journal.Certify) writes
// exactly what a served session would have written.
func historyLog(seed int64, sessions, perSession int) ([]byte, error) {
	var log []byte
	for s := 0; s < sessions; s++ {
		open := streamOpen(seed, streamHistory, int64(s%2), s)
		gen := newArrivalGen(seed, streamHistory, int64(s%2), s)
		arrivals := make([]journal.Arrival, perSession)
		for i := range arrivals {
			a := gen.next()
			arrivals[i] = journal.Arrival{ID: a.ID, Start: a.Start, End: a.End, Weight: a.Weight}
		}
		p := journal.OpenParams{G: open.G, Strategy: open.Strategy, Budget: open.Budget}
		recs, _, err := journal.Certify(open.Session, p, arrivals)
		if err != nil {
			return nil, fmt.Errorf("busybench: seeding history session %d: %w", s, err)
		}
		var buf jsonBuffer
		if err := journal.EncodeRecords(&buf, recs); err != nil {
			return nil, err
		}
		log = append(log, buf...)
	}
	return log, nil
}

type jsonBuffer []byte

func (b *jsonBuffer) Write(p []byte) (int, error) { *b = append(*b, p...); return len(p), nil }

// digest accumulates a SHA-256 over the deterministic content of the
// requests a client generates, in order. The resubmit base_id strings
// depend on the daemon's cache numbering and are left out.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) bytes(b []byte) { d.h.Write(b) }

func (d *digest) ints(xs ...int64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		d.h.Write(b[:])
	}
}

func (d *digest) sum() []byte { return d.h.Sum(nil) }

// combineDigests folds per-client digests, in client order, into the
// digest of the whole request list.
func combineDigests(parts [][]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// edgesOf counts the interval-graph edges of a job set by a sweep over
// start-sorted intervals: jobs i < j (by start) overlap iff start_j <
// end_i. It equals igraph.Build(jobs).Edges() without materializing the
// adjacency lists.
func edgesOf(jobs []job.Job) int64 {
	starts := make([]int64, len(jobs))
	for i, j := range jobs {
		starts[i] = j.Start()
	}
	sort.Slice(starts, func(a, b int) bool { return starts[a] < starts[b] })
	sortedJobs := append([]job.Job(nil), jobs...)
	sort.Slice(sortedJobs, func(a, b int) bool { return sortedJobs[a].Start() < sortedJobs[b].Start() })
	var edges int64
	for i, j := range sortedJobs {
		// Later-starting jobs (positions after i) that start before j ends.
		hi := sort.Search(len(starts), func(k int) bool { return starts[k] >= j.End() })
		if hi > i+1 {
			edges += int64(hi - i - 1)
		}
	}
	return edges
}
