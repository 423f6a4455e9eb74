// Package leakok launches goroutines the sanctioned ways: observing a
// context, joining a WaitGroup, or communicating on a channel —
// including through a same-package callee (go s.run()).
package leakok

import (
	"context"
	"sync"
)

type S struct {
	in   chan int
	done chan struct{}
}

// run drains the input channel and announces exit — a worker that owns
// its state until its input closes.
func (s *S) run() {
	for v := range s.in {
		_ = v
	}
	close(s.done)
}

// Start's goroutine escapes when the channel closes; the signal lives
// in the callee, one level down.
func (s *S) Start() {
	go s.run()
}

// Fan joins every worker through the WaitGroup.
func Fan(n int) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
		}()
	}
	wg.Wait()
}

// WithCtx observes cancellation.
func WithCtx(ctx context.Context) {
	go func() {
		<-ctx.Done()
	}()
}

// Sender communicates; it ends when the receiver takes the value.
func Sender(c chan int) {
	go func() { c <- 1 }()
}
