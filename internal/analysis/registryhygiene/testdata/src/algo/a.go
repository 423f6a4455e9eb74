// Package algo stands in for the algorithm packages: a mix of
// constructor-shaped exported functions (which must be registered or
// waived) and functions the analyzer must not treat as constructors.
package algo

type Schedule struct{ Busy int64 }

type Strategy interface {
	Place(start, end int64) int
}

type greedy struct{}

func (greedy) Place(start, end int64) int { return 0 }

// Good is registered directly by the reg fixture.
func Good(n int) Schedule { return Schedule{} }

// Bad is neither registered nor waived: flagged at reg's import.
func Bad(n int) (Schedule, error) { return Schedule{}, nil }

// Waived carries a reasoned UnregisteredOK entry.
func Waived() *Schedule { return &Schedule{} }

// Reasonless carries a waiver with an empty reason, which does not
// waive: flagged at reg's import, plus a finding on the entry itself.
func Reasonless() Schedule { return Schedule{} }

// NewGreedy is constructor-shaped via the Strategy interface result.
func NewGreedy() Strategy { return greedy{} }

// Helper is not a constructor: wrong result type.
func Helper(n int) int { return n }

// Wrap is not a constructor: a func-typed parameter marks a combinator.
func Wrap(f func(int) Schedule) Schedule { return f(0) }
