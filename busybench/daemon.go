package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/journal"
	"repro/internal/server"
)

// shippedConfig is busyd's flag defaults: the server every measurement
// runs against. The per-request log is encoded as busyd does by default,
// then discarded instead of written to stderr.
func shippedConfig(store journal.Store) server.Config {
	return server.Config{
		Workers:      0,
		MaxInFlight:  256,
		MaxJobs:      100000,
		MaxBatch:     1024,
		MaxBodyBytes: 8 << 20,
		DrainTimeout: 10 * time.Second,
		ReoptCache:   512,
		Journal:      store,
		RequestLog:   io.Discard,
	}
}

// flushPolicy describes the journal durability the daemon keeps: the
// micro-batcher's greedy flush with one fsync per flush.
const flushPolicy = "greedy micro-batch, one Store.Append + fsync per flush"

// memfdCreate is the memfd_create(2) system call number per
// architecture; the standard library's syscall table predates it on
// amd64.
var memfdCreate = map[string]uintptr{"amd64": 319, "arm64": 279, "386": 356, "riscv64": 279, "ppc64le": 360, "s390x": 350}

// journalFile holds the daemon's journal in RAM. On Linux it is an
// anonymous memory file (memfd), reopened by path through /proc, so the
// benchmark writes nothing outside its checkout; elsewhere it falls
// back to a file under dir.
type journalFile struct {
	path string
	f    *os.File
	fs   string
}

// newJournalFile creates a RAM-backed journal holding data.
func newJournalFile(dir string, data []byte) (*journalFile, error) {
	jf := &journalFile{}
	if nr, ok := memfdCreate[runtime.GOARCH]; ok && runtime.GOOS == "linux" {
		name, _ := syscall.BytePtrFromString("busybench-journal")
		fd, _, errno := syscall.Syscall(nr, uintptr(unsafe.Pointer(name)), 0, 0)
		if errno == 0 {
			jf.f = os.NewFile(fd, "memfd:busybench-journal")
			jf.path = fmt.Sprintf("/proc/self/fd/%d", fd)
			jf.fs = "tmpfs (memfd)"
		}
	}
	if jf.f == nil {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		f, err := os.CreateTemp(dir, "journal-*.ndjson")
		if err != nil {
			return nil, err
		}
		jf.f, jf.path, jf.fs = f, f.Name(), fsType(dir)
	}
	if _, err := jf.f.Write(data); err != nil {
		jf.close()
		return nil, fmt.Errorf("busybench: seeding journal: %w", err)
	}
	return jf, nil
}

// size returns the journal's current length in bytes.
func (jf *journalFile) size() int64 {
	st, err := jf.f.Stat()
	if err != nil {
		return 0
	}
	return st.Size()
}

func (jf *journalFile) close() {
	if jf.path != "" && jf.fs != "tmpfs (memfd)" {
		// A fallback journal file is scratch; remove it with the run.
		_ = os.Remove(jf.path)
	}
	_ = jf.f.Close()
}

// daemon is busyd booted in process, the way a restarted
// `busyd -journal` boots: the file store replays the log, the server
// is built from the shipped config and serves a loopback listener.
type daemon struct {
	jf     *journalFile
	store  *journal.FileStore
	timed  *timedStore // nil unless the run is traced
	srv    *server.Server
	url    string
	client *http.Client
	cancel context.CancelFunc
	served chan error

	started time.Time     // set-up start: the OpenFileStore call
	replay  time.Duration // OpenFileStore alone
}

// boot starts a daemon on a RAM journal seeded with log. With traced
// set, the journal store is wrapped in a timing store (inactive until
// switched on).
func boot(log []byte, scratchDir string, clients int, traced bool) (*daemon, error) {
	jf, err := newJournalFile(scratchDir, log)
	if err != nil {
		return nil, err
	}
	d := &daemon{jf: jf, started: time.Now()}
	d.store, err = journal.OpenFileStore(jf.path)
	d.replay = time.Since(d.started)
	if err != nil {
		jf.close()
		return nil, err
	}
	var store journal.Store = d.store
	if traced {
		d.timed = &timedStore{inner: d.store}
		store = d.timed
	}
	d.srv, err = server.New(shippedConfig(store))
	if err != nil {
		d.closeStore()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.closeStore()
		return nil, err
	}
	d.url = "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	d.cancel = cancel
	d.served = make(chan error, 1)
	go func() { d.served <- d.srv.Serve(ctx, ln) }()
	d.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients + 2,
		DisableCompression:  true,
	}}
	if err := d.healthz(); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *daemon) healthz() error {
	resp, err := d.client.Get(d.url + "/healthz")
	if err != nil {
		return fmt.Errorf("busybench: healthz: %w", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(bytes.TrimSpace(body), []byte("ok")) {
		return fmt.Errorf("busybench: healthz: %s %q", resp.Status, body)
	}
	return nil
}

// serveWrapped serves the daemon's handler on a second loopback
// listener behind the timing handler wrapper; the returned stop
// function shuts it down and waits for it.
func (d *daemon) serveWrapped(h *timedHandler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	h.inner = d.srv.Handler()
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), func() {
		_ = hs.Shutdown(context.Background())
		<-done
	}, nil
}

// stop drains the server, waits for Serve to return and closes the
// journal store and file.
func (d *daemon) stop() error {
	d.cancel()
	err := <-d.served
	d.client.CloseIdleConnections()
	if cerr := d.closeStore(); err == nil {
		err = cerr
	}
	return err
}

func (d *daemon) closeStore() error {
	err := d.store.Close()
	d.jf.close()
	return err
}

// timedStore is a journal.Store that times each Append into the file
// store: record encoding, the write, the fsync and waiting on the
// store lock. It counts calls, records and events while on.
type timedStore struct {
	inner journal.Store
	on    atomic.Bool

	mu      sync.Mutex
	appends int64
	records int64
	events  int64
	totalNS int64
}

func (s *timedStore) Append(session string, recs []journal.Record) error {
	if !s.on.Load() {
		return s.inner.Append(session, recs)
	}
	t0 := time.Now()
	err := s.inner.Append(session, recs)
	ns := time.Since(t0).Nanoseconds()
	events := 0
	for i := range recs {
		if recs[i].Kind == journal.KindEvent {
			events++
		}
	}
	s.mu.Lock()
	s.appends++
	s.records += int64(len(recs))
	s.events += int64(events)
	s.totalNS += ns
	s.mu.Unlock()
	return err
}

func (s *timedStore) Read(session string) ([]journal.Record, error) { return s.inner.Read(session) }
func (s *timedStore) Sessions() ([]string, error)                   { return s.inner.Sessions() }
func (s *timedStore) Close() error                                  { return s.inner.Close() }

// timedHandler is an http.Handler that times the daemon's handler per
// request path.
type timedHandler struct {
	inner http.Handler

	mu      sync.Mutex
	calls   map[string]int64
	totalNS map[string]int64
}

func newTimedHandler() *timedHandler {
	return &timedHandler{calls: map[string]int64{}, totalNS: map[string]int64{}}
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	h.inner.ServeHTTP(w, r)
	ns := time.Since(t0).Nanoseconds()
	h.mu.Lock()
	h.calls[r.URL.Path]++
	h.totalNS[r.URL.Path] += ns
	h.mu.Unlock()
}
