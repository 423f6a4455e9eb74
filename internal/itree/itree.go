// Package itree implements an order-statistics interval set supporting
// O(log n) insertion and O(log n) overlap queries against half-open
// intervals whose members are pairwise non-overlapping.
//
// It is the data structure behind core.FirstFit: each machine thread
// holds pairwise non-overlapping jobs, so "does job J overlap anything on
// this thread?" reduces to a predecessor/successor check in a balanced
// search tree keyed by start time. A plain job list would scan the whole
// thread (O(thread length) per check); this brings a thread check to
// O(log n) and the whole algorithm to O(n·m·g·log n) worst case with much
// better constants in practice.
//
// The implementation is a classic treap (randomized BST) with a
// deterministic xorshift priority stream, so behavior is reproducible.
package itree

import "repro/internal/interval"

// Set is a set of pairwise non-overlapping half-open intervals. The zero
// value is an empty set ready to use.
type Set struct {
	root *node
	rng  uint64
}

type node struct {
	iv          interval.Interval
	prio        uint64
	left, right *node
}

// Len returns the number of stored intervals.
func (s *Set) Len() int { return count(s.root) }

func count(n *node) int {
	if n == nil {
		return 0
	}
	return 1 + count(n.left) + count(n.right)
}

// Overlaps reports whether iv overlaps (positive-measure intersection)
// any stored interval.
func (s *Set) Overlaps(iv interval.Interval) bool {
	if iv.Empty() {
		return false
	}
	n := s.root
	for n != nil {
		if n.iv.Overlaps(iv) {
			return true
		}
		// Stored intervals are disjoint and sorted by start; if iv ends at
		// or before this node starts, only the left subtree can overlap.
		if iv.End <= n.iv.Start {
			n = n.left
		} else {
			n = n.right
		}
	}
	return false
}

// Insert adds iv to the set. It returns false (and leaves the set
// unchanged) when iv overlaps an existing member or is empty, preserving
// the disjointness invariant.
func (s *Set) Insert(iv interval.Interval) bool {
	if iv.Empty() || s.Overlaps(iv) {
		return false
	}
	s.root = s.insert(s.root, &node{iv: iv, prio: s.nextPrio()})
	return true
}

func (s *Set) insert(root, n *node) *node {
	if root == nil {
		return n
	}
	if n.iv.Start < root.iv.Start {
		root.left = s.insert(root.left, n)
		if root.left.prio > root.prio {
			root = rotateRight(root)
		}
	} else {
		root.right = s.insert(root.right, n)
		if root.right.prio > root.prio {
			root = rotateLeft(root)
		}
	}
	return root
}

func rotateRight(n *node) *node {
	l := n.left
	n.left = l.right
	l.right = n
	return l
}

func rotateLeft(n *node) *node {
	r := n.right
	n.right = r.left
	r.left = n
	return r
}

// nextPrio draws from a deterministic xorshift64 stream seeded per set.
func (s *Set) nextPrio() uint64 {
	if s.rng == 0 {
		s.rng = 0x9E3779B97F4A7C15
	}
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	return s.rng
}

// Intervals returns the stored intervals in start order.
func (s *Set) Intervals() []interval.Interval {
	var out []interval.Interval
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		walk(n.left)
		out = append(out, n.iv)
		walk(n.right)
	}
	walk(s.root)
	return out
}
