package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/journal"
)

// TestRefusals covers every refusal path: each request gets its status
// and moves the busyd_rejected_total counters by exactly the listed
// amounts, on a fresh server so that every counter starts at zero.
func TestRefusals(t *testing.T) {
	const (
		solve  = `{"kind":"min-busy","instance":{"g":2,"jobs":[{"id":0,"start":0,"end":4},{"id":1,"start":2,"end":6},{"id":2,"start":5,"end":9}]}}`
		header = `{"g":2,"strategy":"online-firstfit","session":"taken-1"}` + "\n"
	)
	cases := []struct {
		name         string
		cfg          Config
		setup        func(t *testing.T, s *Server)
		method, path string
		body         string
		status       int
		// The expected busyd_rejected_total{reason=...} counts.
		badRequest, tooLarge, overload float64
	}{
		{name: "method not allowed", method: http.MethodGet, path: "/v1/solve",
			status: http.StatusMethodNotAllowed},
		{name: "malformed body", method: http.MethodPost, path: "/v1/solve", body: `{"instance":`,
			status: http.StatusBadRequest, badRequest: 1},
		{name: "body over the cap", cfg: Config{MaxBodyBytes: 64}, method: http.MethodPost, path: "/v1/solve", body: solve,
			status: http.StatusRequestEntityTooLarge, tooLarge: 1},
		{name: "instance over MaxJobs", cfg: Config{MaxJobs: 2}, method: http.MethodPost, path: "/v1/solve", body: solve,
			status: http.StatusRequestEntityTooLarge, tooLarge: 1},
		{name: "batch over MaxBatch", cfg: Config{MaxBatch: 1}, method: http.MethodPost, path: "/v1/solve/batch",
			body:   `{"requests":[` + solve + `,` + solve + `]}`,
			status: http.StatusRequestEntityTooLarge, tooLarge: 1},
		{name: "unknown batch algorithm", method: http.MethodPost, path: "/v1/solve/batch",
			body:   `{"algorithm":"no-such-algorithm","requests":[` + solve + `]}`,
			status: http.StatusBadRequest, badRequest: 1},
		{name: "in-flight cap", cfg: Config{MaxInFlight: 1},
			// One admitted request holds the only slot.
			setup:  func(t *testing.T, s *Server) { s.metrics.inFlight.Store(1) },
			method: http.MethodPost, path: "/v1/solve", body: solve,
			status: http.StatusTooManyRequests, overload: 1},
		{name: "bad stream header", method: http.MethodPost, path: "/v1/stream", body: `{"g":0}` + "\n",
			status: http.StatusBadRequest, badRequest: 1},
		{name: "session conflict", cfg: Config{Journal: journal.NewMemStore()},
			setup: func(t *testing.T, s *Server) {
				if _, err := journal.NewWriter(s.cfg.Journal, "taken-1", journal.OpenParams{G: 2, Strategy: "online-firstfit"}); err != nil {
					t.Fatal(err)
				}
			},
			method: http.MethodPost, path: "/v1/stream", body: header,
			status: http.StatusConflict},
		{name: "unknown journal session", method: http.MethodGet, path: "/v1/stream/journal?session=never-opened",
			status: http.StatusNotFound},
		{name: "bad traces query", method: http.MethodGet, path: "/debug/traces?limit=-1",
			status: http.StatusBadRequest, badRequest: 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := New(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if c.setup != nil {
				c.setup(t, s)
			}
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			var reply map[string]string
			decodeErr := json.NewDecoder(resp.Body).Decode(&reply)
			resp.Body.Close()
			if resp.StatusCode != c.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, c.status)
			}
			if decodeErr != nil || len(reply) != 1 || reply["error"] == "" {
				t.Errorf("reply %v (%v), want one non-empty \"error\" field", reply, decodeErr)
			}
			samples := metricsSamples(t, ts.URL)
			for reason, want := range map[string]float64{"bad_request": c.badRequest, "too_large": c.tooLarge, "overload": c.overload} {
				if got := samples[`busyd_rejected_total{reason="`+reason+`"}`]; got != want {
					t.Errorf("busyd_rejected_total{reason=%q} = %g, want %g", reason, got, want)
				}
			}
		})
	}
}
