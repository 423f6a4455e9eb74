// Command busybench is busyd's end-to-end and layer-by-layer benchmark.
// It boots the daemon in process the way a restarted `busyd -journal`
// boots, drives one named workload from closed-loop clients, checks
// every output, and prints the metrics, one JSON object on the last
// line of standard output.
//
// Usage (from the repository root):
//
//	bash busybench/run.sh --workload solve-cold --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 serves the
// workload untraced and traced and then replays it layer by layer,
// printing the per-layer metrics. See busybench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// clients is the number of closed-loop clients: one per CPU of the
// 2-core machine the baseline was measured on.
const clients = 2

// spanDir receives the span dumps of traced runs; a fallback journal
// file, where no memory file exists, lives there too.
var spanDir = filepath.Join(".bench_build", "spans")

// sizes are a run's fixed amounts of work around the timed passes; the
// tests shrink them.
type sizes struct {
	// warmCold is the solve-cold warm-up per client: two clients fill
	// the 512-entry reopt cache.
	warmCold int
	// historySessions closed sessions of historyArrivals arrivals each
	// make the seeded journal every boot replays.
	historySessions int
}

var fullSizes = sizes{warmCold: 256, historySessions: 20}

const historyArrivals = 1000

// workloadSpec fixes a workload's work per run: ops per client per
// second of --seconds, so a run replays a fixed request list whose
// length depends only on the arguments, and the number of daemon
// set-ups in an untraced run, whose median is setup_s.
type workloadSpec struct {
	name      string
	opsPerSec float64 // per client
	unit      string  // what one op is
	setups    int
}

// At --seconds 20, the setting in BENCHMARK.json, solve-cold serves
// 1200 requests and resubmit 1020 batches (p99 needs 1000), about 10 s
// and 35 s on the 2-vCPU baseline machine. stream-journal serves 200
// sessions in about 9 s: its tail is made of whole-process stalls that
// each delay dozens of arrivals at once, so it needs many arrivals,
// though the daemon's file store keeps every record in memory and 400k
// arrivals take the process to about 400 MB. Twice as many arrivals
// (750 MB) left the ten-run spread of its p99 about where it was.
//
// A solve-cold set-up takes about 4 s, most of it the warm-up's dense
// solves, and three of them agree closely; the other set-ups take about
// 0.4 s, mostly the journal replay, and a median of seven steadies them.
var workloads = []workloadSpec{
	{"solve-cold", 30, "solve request", 3},
	{"resubmit", 25.5, "batch of 8 edits", 7},
	{"stream-journal", 5, "session of 2000 arrivals", 7},
}

func main() {
	os.Exit(run())
}

// runner runs one workload. prepare generates the warm-up inputs
// before set-up is timed; warm runs the warm-up pass.
type runner interface {
	prepare(clients int)
	use(hc *http.Client, recheckAll bool)
	warm(url string, clients int) error
	run(url string, clients, first, count int) *passStats
}

func newRunner(name string, seed int64, sz sizes) runner {
	switch name {
	case "solve-cold":
		return &coldRunner{seed: seed, warmN: sz.warmCold}
	case "resubmit":
		return &resubmitRunner{seed: seed}
	default:
		return &streamRunner{seed: seed}
	}
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: solve-cold|resubmit|stream-journal")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 10, "nominal timed-phase length; fixes the request count")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	)
	flag.Parse()
	var spec workloadSpec
	for _, w := range workloads {
		if w.name == *name {
			spec = w
		}
	}
	if spec.name == "" || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "busybench: need --workload %s, --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	count := int(math.Ceil(spec.opsPerSec * float64(*seconds)))
	b := &bench{spec: spec, seed: *seed, count: count, outDir: spanDir, sizes: fullSizes}
	var res *result
	var err error
	if *traced == 1 {
		res, err = b.traced()
	} else {
		res, err = b.untraced()
	}
	if err == nil {
		err = res.unsupported
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "busybench:", err)
		return 1
	}
	res.print(os.Stdout)
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, "|")
}

// bench is one run's configuration.
type bench struct {
	spec   workloadSpec
	seed   int64
	count  int // ops per client
	outDir string
	sizes  sizes
	log    []byte
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's outcome: the contract's last-line JSON plus the
// human-readable report printed above it.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	workload    string
	lines       []string
	order       []string
	unsupported error // the run was too small to report its metrics
}

func newResult(workload string) *result {
	return &result{Correct: true, Metrics: map[string]metric{}, workload: workload}
}

func (r *result) set(name string, v float64, unit string) {
	if _, ok := r.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// print writes the report, each metric as <workload>/<metric>, then the
// JSON object as the last line.
func (r *result) print(w *os.File) {
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%s/%s = %.6g %s\n", r.workload, name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%s/attempted = %d, failed = %d, correct = %v\n", r.workload, r.Attempted, r.Failed, r.Correct)
	data, err := json.Marshal(r)
	if err != nil {
		panic(err)
	}
	fmt.Fprintln(w, string(data))
}

// envLines describes the run environment.
func (b *bench) envLines(r *result, journalFS string) {
	r.note("busybench: workload=%s seed=%d ops/client=%d (%s each) clients=%d", b.spec.name, b.seed, b.count, b.spec.unit, clients)
	r.note("env: %s GOMAXPROCS=%d nproc=%d journal=%s flush=%q", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), journalFS, flushPolicy)
}

// warmSetup boots a daemon and runs the workload's warm-up pass on it,
// timing set-up from OpenFileStore to the end of the warm-up. The time
// is scaled to granted CPU time, like the timed pass's figures.
func (b *bench) warmSetup(traced bool) (*daemon, runner, time.Duration, error) {
	if b.log == nil {
		var err error
		if b.log, err = historyLog(b.seed, b.sizes.historySessions, historyArrivals); err != nil {
			return nil, nil, 0, err
		}
	}
	drv := newRunner(b.spec.name, b.seed, b.sizes)
	drv.prepare(clients)
	// Every set-up starts from a collected heap, not from the garbage of
	// the previous daemon and of the inputs just generated.
	runtime.GC()
	steal := startStealSampler()
	d, err := boot(b.log, b.outDir, clients, traced)
	if err != nil {
		steal.finish()
		return nil, nil, 0, err
	}
	drv.use(d.client, traced)
	err = drv.warm(d.url, clients)
	end := time.Now()
	steal.finish()
	if err != nil {
		d.stop()
		return nil, nil, 0, err
	}
	took := end.Sub(d.started)
	return d, drv, time.Duration(float64(took) * (1 - min(steal.share(d.started, end), maxStolen))), nil
}

// untraced is the --trace 0 run: set-up several times, then one timed
// pass on the last daemon.
func (b *bench) untraced() (*result, error) {
	res := newResult(b.spec.name)
	var setupS []float64
	var d *daemon
	var drv runner
	for i := 0; i < b.spec.setups; i++ {
		var err error
		var took time.Duration
		d, drv, took, err = b.warmSetup(false)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, took.Seconds())
		if i < b.spec.setups-1 {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
	}
	b.envLines(res, d.jf.fs)
	runtime.GC()
	m0 := readMem()
	p, steal := timedPass(res, drv, d.url, 0, b.count)
	mem := memBetween(m0, readMem())
	res.note("runtime: %d GC cycles, %.1f ms paused, GC share of CPU %.3f in the timed phase",
		mem.gcCycles, float64(mem.pauseNS)/1e6, mem.gcCPUShare)
	b.check(res, p, drv, d)
	if err := d.stop(); err != nil {
		return nil, err
	}
	res.note("setup runs (s, scaled to granted CPU): %.4f", setupS)
	b.endToEnd(res, p, steal)
	res.set("setup_s", medianFloat(setupS), "s")
	res.set("rss_peak_mb", vmHWM(), "MB")
	return res, nil
}

// timedPass runs count ops per client from index first, reading host
// CPU steal and the process's involuntary context switches over the
// pass, so that a run the host disturbed can be recognized.
func timedPass(res *result, drv runner, url string, first, count int) (*passStats, *stealSampler) {
	nivcsw := involuntarySwitches()
	steal := startStealSampler()
	p := drv.run(url, clients, first, count)
	steal.finish()
	res.note("host: steal share %.4f over the timed pass (%d readings), %d involuntary context switches",
		steal.share(p.start, p.start.Add(p.wall)), len(steal.samples), involuntarySwitches()-nivcsw)
	return p, steal
}

// grantedRate is a pass's jobs per second of the CPU time the host
// granted it.
func grantedRate(p *passStats, steal *stealSampler) float64 {
	return float64(p.jobs) / p.wall.Seconds() / (1 - min(steal.share(p.start, p.start.Add(p.wall)), maxStolen))
}

// check runs the post-pass correctness gate: local re-certification of
// the sampled results and, for streams, the offline replay of every
// close report and journal verification.
func (b *bench) check(res *result, p *passStats, drv runner, d *daemon) {
	res.Attempted += p.attempted
	res.Failed += p.failed
	for _, f := range p.failures {
		res.note("FAILED: %s", f)
	}
	for _, rc := range p.rechecks {
		if err := rc.certifyLocally(); err != nil {
			res.Failed++
			res.note("FAILED: local re-certification: %v", err)
		}
	}
	res.note("checks: %d results re-certified locally", len(p.rechecks))
	if sd, ok := drv.(*streamRunner); ok {
		bad := sd.verifyCloses(p.closes, d.store)
		res.Failed += len(bad)
		for _, f := range bad {
			res.note("FAILED: %s", f)
		}
		res.note("checks: %d close reports byte-equal to offline replay, journals verified", len(p.closes)-len(bad))
	}
	res.note("seed %d request digest %s", b.seed, combineDigests(p.digests))
	if res.Failed > 0 {
		res.Correct = false
	}
}

// endToEnd sets the pass's end-to-end metrics.
func (b *bench) endToEnd(res *result, p *passStats, steal *stealSampler) {
	wall := p.wall.Nanoseconds()
	stolen := func(from, to int64) float64 {
		return steal.share(p.start.Add(time.Duration(from)), p.start.Add(time.Duration(to)))
	}
	stall := func(from, to int64) int64 {
		return steal.stall(p.start.Add(time.Duration(from)), p.start.Add(time.Duration(to)))
	}
	rates := windowRates(p.done, wall, stolen)
	// p99 needs 1000 samples per group, so 10 lie beyond it; p50 uses
	// the same groups.
	p50s, shares, _ := groupLatencies(p.done, 0.50, 100*minTail, stall, stolen)
	p99s, _, ok := groupLatencies(p.done, 0.99, 100*minTail, stall, stolen)
	res.note("latency samples: %d; p99 from %d groups of at least %d (supported: %v); timed phase %.3f s",
		len(p.done), len(p99s), 100*minTail, ok, p.wall.Seconds())
	if !ok {
		res.unsupported = fmt.Errorf("%d latency samples cannot support p99; raise --seconds", len(p.done))
	}
	all := make([]int64, len(p.done))
	for i, c := range p.done {
		all[i] = c.lat
	}
	all = sortedCopy(all)
	g50, _ := percentile(all, 0.5)
	g99, _ := percentile(all, 0.99)
	res.note("uncorrected, whole timed phase: jobs_per_s %.1f, latency p50 %.4f ms, p99 %.4f ms",
		float64(p.jobs)/p.wall.Seconds(), float64(g50)/1e6, float64(g99)/1e6)
	res.note("windows: jobs/s %.0f; groups: p50 ms %.3f, p99 ms %.3f, steal share %.4f",
		rates, scaled(p50s, 1e-6), scaled(p99s, 1e-6), shares)
	res.set("jobs_per_s", medianFloat(rates), "jobs/s")
	res.set("latency_p50_ms", medianFloat(quietHalf(p50s, shares))/1e6, "ms")
	res.set("latency_p99_ms", medianFloat(quietHalf(p99s, shares))/1e6, "ms")
	if p.lb > 0 {
		res.set("quality_ratio", float64(p.cost)/float64(p.lb), "ratio")
	}
	keys := make([]string, 0, len(p.outcomes))
	for k := range p.outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if k != "" {
			res.note("outcome %s: %d", k, p.outcomes[k])
		}
	}
}
