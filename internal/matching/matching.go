// Package matching implements maximum-weight matching in general graphs.
//
// The busy-time paper (Lemma 3.1) solves clique instances of MinBusy with
// g = 2 exactly by reducing to maximum-weight matching on the overlap graph
// G_m: a machine that runs two jobs saves their overlap length, so the
// minimum-cost schedule corresponds to a maximum-weight matching.
//
// The implementation is the classical O(V³) primal-dual blossom algorithm
// (Galil's formulation, following the widely used reference implementation
// by J. van Rantwijk). Weights are int64; the solver internally doubles all
// weights so that dual variables stay integral throughout — no floating
// point is involved, and results are exact.
//
// Package matching also ships an exponential-time oracle (BruteForce) used
// by the test suite to cross-check the blossom solver on small graphs.
package matching

import "context"

// ctxCheckInterval is how many inner-loop steps (queue scans, dual
// adjustments) run between context checks in the blossom solver:
// frequent enough that cancellation lands within microseconds on
// thousand-vertex graphs, rare enough that the check is free.
const ctxCheckInterval = 1 << 12

// Edge is an undirected weighted edge between distinct vertices U < V is
// not required; self-loops are forbidden.
type Edge struct {
	U, V   int
	Weight int64
}

// Max computes a maximum-weight matching of the n-vertex graph with the
// given edges. The result maps each vertex to its mate, or -1 when the
// vertex is unmatched. Negative-weight edges never help a maximum-weight
// matching and are ignored. Max panics on self-loops or out-of-range
// vertices, which are programming errors.
//
// The O(V³) primal-dual stage loop checks ctx every ctxCheckInterval
// inner steps and returns ctx.Err() once it fires, so a Solver deadline
// can abandon a large matching mid-stage; ctx is the only error source.
func Max(ctx context.Context, n int, edges []Edge) ([]int, error) {
	useful := make([]Edge, 0, len(edges))
	// Clique instances feed Θ(n²) edges through here, so even this
	// validation pass gets a strided cancellation point.
	for i, e := range edges {
		if i%ctxCheckInterval == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if e.U == e.V {
			panic("matching: self-loop")
		}
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			panic("matching: vertex out of range")
		}
		if e.Weight > 0 {
			useful = append(useful, e)
		}
	}
	if len(useful) == 0 || n == 0 {
		mate := make([]int, n)
		//lint:ignore busylint/ctxloop single O(n) initialization pass; nothing to cancel
		for i := range mate {
			mate[i] = -1
		}
		return mate, nil
	}
	s := newSolver(n, useful)
	return s.solve(ctx)
}

// Weight returns the total weight of the matching mate over edges. It is a
// reporting helper: mate[u] == v with u < v counts the heaviest edge
// between u and v once.
func Weight(mate []int, edges []Edge) int64 {
	best := map[[2]int]int64{}
	for _, e := range edges {
		a, b := e.U, e.V
		if a > b {
			a, b = b, a
		}
		key := [2]int{a, b}
		if w, ok := best[key]; !ok || e.Weight > w {
			best[key] = e.Weight
		}
	}
	var total int64
	for u, v := range mate {
		if v > u {
			total += best[[2]int{u, v}]
		}
	}
	return total
}

// solver carries the blossom algorithm state. Vertices are 0..n-1;
// blossoms are n..2n-1. Endpoint p encodes edge p/2 and side p%2.
type solver struct {
	n     int
	edges []Edge

	endpoint  []int   // endpoint[p] = vertex at endpoint p
	neighbend [][]int // neighbend[v] = remote endpoints of edges incident to v

	mate             []int   // mate[v] = remote endpoint of matched edge, -1 if free
	label            []int   // 0 free, 1 S, 2 T (per vertex and per blossom)
	labelend         []int   // endpoint through which the label was assigned
	inblossom        []int   // top-level blossom containing vertex v
	blossomparent    []int   // immediate parent blossom, -1 at top level
	blossomchilds    [][]int // ordered sub-blossoms of a blossom
	blossombase      []int   // base vertex of a blossom
	blossomendps     [][]int // endpoints connecting consecutive sub-blossoms
	bestedge         []int   // least-slack edge to a different S-blossom
	blossombestedges [][]int // per top-level S-blossom: candidate least-slack edges
	unusedblossoms   []int
	dualvar          []int64
	allowedge        []bool
	queue            []int

	ops int // inner-loop step counter driving periodic ctx checks
}

// tick counts one inner-loop step and reports the context error once
// every ctxCheckInterval steps.
func (s *solver) tick(ctx context.Context) error {
	s.ops++
	if s.ops%ctxCheckInterval == 0 {
		return ctx.Err()
	}
	return nil
}

func newSolver(n int, edges []Edge) *solver {
	s := &solver{n: n, edges: make([]Edge, len(edges))}
	var maxW int64
	for i, e := range edges {
		// Double weights so that duals and slacks remain integral.
		s.edges[i] = Edge{U: e.U, V: e.V, Weight: 2 * e.Weight}
		if s.edges[i].Weight > maxW {
			maxW = s.edges[i].Weight
		}
	}
	ne := len(edges)
	s.endpoint = make([]int, 2*ne)
	s.neighbend = make([][]int, n)
	for k, e := range s.edges {
		s.endpoint[2*k] = e.U
		s.endpoint[2*k+1] = e.V
		s.neighbend[e.U] = append(s.neighbend[e.U], 2*k+1)
		s.neighbend[e.V] = append(s.neighbend[e.V], 2*k)
	}
	s.mate = filled(n, -1)
	s.label = make([]int, 2*n)
	s.labelend = filled(2*n, -1)
	s.inblossom = iota2(n)
	s.blossomparent = filled(2*n, -1)
	s.blossomchilds = make([][]int, 2*n)
	s.blossombase = append(iota2(n), filled(n, -1)...)
	s.blossomendps = make([][]int, 2*n)
	s.bestedge = filled(2*n, -1)
	s.blossombestedges = make([][]int, 2*n)
	for b := n; b < 2*n; b++ {
		s.unusedblossoms = append(s.unusedblossoms, b)
	}
	s.dualvar = make([]int64, 2*n)
	for v := 0; v < n; v++ {
		s.dualvar[v] = maxW
	}
	s.allowedge = make([]bool, ne)
	return s
}

func filled(n, v int) []int {
	xs := make([]int, n)
	for i := range xs {
		xs[i] = v
	}
	return xs
}

func iota2(n int) []int {
	xs := make([]int, n)
	for i := range xs {
		xs[i] = i
	}
	return xs
}

// slack returns the dual slack of edge k: π_u + π_v − w(k) (non-negative
// for all edges at optimality; zero on matched edges).
func (s *solver) slack(k int) int64 {
	e := s.edges[k]
	return s.dualvar[e.U] + s.dualvar[e.V] - e.Weight
}

// blossomLeaves appends all ground vertices contained in blossom b to out.
func (s *solver) blossomLeaves(b int, out []int) []int {
	if b < s.n {
		return append(out, b)
	}
	for _, t := range s.blossomchilds[b] {
		out = s.blossomLeaves(t, out)
	}
	return out
}

// assignLabel labels the top-level blossom of w with t (1 = S, 2 = T),
// recording the endpoint p through which the label arrived, and schedules
// follow-up work (S-vertices are scanned; a T-blossom's base mate becomes
// an S-vertex).
func (s *solver) assignLabel(w, t, p int) {
	b := s.inblossom[w]
	s.label[w] = t
	s.label[b] = t
	s.labelend[w] = p
	s.labelend[b] = p
	s.bestedge[w] = -1
	s.bestedge[b] = -1
	if t == 1 {
		s.queue = s.blossomLeaves(b, s.queue)
	} else {
		base := s.blossombase[b]
		s.assignLabel(s.endpoint[s.mate[base]], 1, s.mate[base]^1)
	}
}

// scanBlossom traces back from vertices v and w to find either a new
// blossom's base vertex (returned) or an augmenting path (returns -1).
func (s *solver) scanBlossom(v, w int) int {
	var path []int
	base := -1
	for v != -1 || w != -1 {
		b := s.inblossom[v]
		if s.label[b]&4 != 0 {
			base = s.blossombase[b]
			break
		}
		path = append(path, b)
		s.label[b] = 5
		if s.labelend[b] == -1 {
			v = -1
		} else {
			v = s.endpoint[s.labelend[b]]
			b = s.inblossom[v]
			v = s.endpoint[s.labelend[b]]
		}
		if w != -1 {
			v, w = w, v
		}
	}
	for _, b := range path {
		s.label[b] = 1
	}
	return base
}

// addBlossom contracts the odd cycle through edge k with the given base
// vertex into a new blossom.
func (s *solver) addBlossom(base, k int) {
	v, w := s.edges[k].U, s.edges[k].V
	bb := s.inblossom[base]
	bv := s.inblossom[v]
	bw := s.inblossom[w]
	b := s.unusedblossoms[len(s.unusedblossoms)-1]
	s.unusedblossoms = s.unusedblossoms[:len(s.unusedblossoms)-1]

	s.blossombase[b] = base
	s.blossomparent[b] = -1
	s.blossomparent[bb] = b

	var path, endps []int
	for bv != bb {
		s.blossomparent[bv] = b
		path = append(path, bv)
		endps = append(endps, s.labelend[bv])
		v = s.endpoint[s.labelend[bv]]
		bv = s.inblossom[v]
	}
	path = append(path, bb)
	reverse(path)
	reverse(endps)
	endps = append(endps, 2*k)
	for bw != bb {
		s.blossomparent[bw] = b
		path = append(path, bw)
		endps = append(endps, s.labelend[bw]^1)
		w = s.endpoint[s.labelend[bw]]
		bw = s.inblossom[w]
	}
	s.blossomchilds[b] = path
	s.blossomendps[b] = endps

	s.label[b] = 1
	s.labelend[b] = s.labelend[bb]
	s.dualvar[b] = 0
	for _, leaf := range s.blossomLeaves(b, nil) {
		if s.label[s.inblossom[leaf]] == 2 {
			s.queue = append(s.queue, leaf)
		}
		s.inblossom[leaf] = b
	}

	// Recompute the least-slack edge to every other top-level S-blossom.
	bestedgeto := filled(2*s.n, -1)
	for _, child := range path {
		var lists [][]int
		if s.blossombestedges[child] == nil {
			for _, leaf := range s.blossomLeaves(child, nil) {
				list := make([]int, len(s.neighbend[leaf]))
				for i, p := range s.neighbend[leaf] {
					list[i] = p / 2
				}
				lists = append(lists, list)
			}
		} else {
			lists = [][]int{s.blossombestedges[child]}
		}
		for _, list := range lists {
			for _, ek := range list {
				i, j := s.edges[ek].U, s.edges[ek].V
				if s.inblossom[j] == b {
					i, j = j, i
				}
				bj := s.inblossom[j]
				if bj != b && s.label[bj] == 1 &&
					(bestedgeto[bj] == -1 || s.slack(ek) < s.slack(bestedgeto[bj])) {
					bestedgeto[bj] = ek
				}
				_ = i
			}
		}
		s.blossombestedges[child] = nil
		s.bestedge[child] = -1
	}
	var kept []int
	for _, ek := range bestedgeto {
		if ek != -1 {
			kept = append(kept, ek)
		}
	}
	s.blossombestedges[b] = kept
	s.bestedge[b] = -1
	for _, ek := range kept {
		if s.bestedge[b] == -1 || s.slack(ek) < s.slack(s.bestedge[b]) {
			s.bestedge[b] = ek
		}
	}
}

// expandBlossom undoes the contraction of blossom b. During a stage
// (endstage false) the sub-blossoms inherit labels so the search can
// continue; at the end of the algorithm (endstage true) zero-dual blossoms
// are expanded recursively.
func (s *solver) expandBlossom(b int, endstage bool) {
	for _, child := range s.blossomchilds[b] {
		s.blossomparent[child] = -1
		if child < s.n {
			s.inblossom[child] = child
		} else if endstage && s.dualvar[child] == 0 {
			s.expandBlossom(child, endstage)
		} else {
			for _, leaf := range s.blossomLeaves(child, nil) {
				s.inblossom[leaf] = child
			}
		}
	}
	if !endstage && s.label[b] == 2 {
		entrychild := s.inblossom[s.endpoint[s.labelend[b]^1]]
		j := indexOf(s.blossomchilds[b], entrychild)
		var jstep, endptrick int
		if j&1 != 0 {
			j -= len(s.blossomchilds[b])
			jstep = 1
			endptrick = 0
		} else {
			jstep = -1
			endptrick = 1
		}
		p := s.labelend[b]
		for j != 0 {
			s.label[s.endpoint[p^1]] = 0
			s.label[s.endpoint[at(s.blossomendps[b], j-endptrick)^endptrick^1]] = 0
			s.assignLabel(s.endpoint[p^1], 2, p)
			s.allowedge[at(s.blossomendps[b], j-endptrick)/2] = true
			j += jstep
			p = at(s.blossomendps[b], j-endptrick) ^ endptrick
			s.allowedge[p/2] = true
			j += jstep
		}
		bv := at2(s.blossomchilds[b], j)
		s.label[s.endpoint[p^1]] = 2
		s.label[bv] = 2
		s.labelend[s.endpoint[p^1]] = p
		s.labelend[bv] = p
		s.bestedge[bv] = -1
		j += jstep
		for at2(s.blossomchilds[b], j) != entrychild {
			bv := at2(s.blossomchilds[b], j)
			if s.label[bv] == 1 {
				j += jstep
				continue
			}
			var labeled int = -1
			for _, leaf := range s.blossomLeaves(bv, nil) {
				if s.label[leaf] != 0 {
					labeled = leaf
					break
				}
			}
			if labeled != -1 {
				s.label[labeled] = 0
				s.label[s.endpoint[s.mate[s.blossombase[bv]]]] = 0
				s.assignLabel(labeled, 2, s.labelend[labeled])
			}
			j += jstep
		}
	}
	s.label[b] = -1
	s.labelend[b] = -1
	s.blossomchilds[b] = nil
	s.blossomendps[b] = nil
	s.blossombase[b] = -1
	s.blossombestedges[b] = nil
	s.bestedge[b] = -1
	s.unusedblossoms = append(s.unusedblossoms, b)
}

// at indexes a slice with Python-style negative indices (used by the
// blossom rotation logic, which walks the cycle in either direction).
func at(xs []int, i int) int {
	if i < 0 {
		i += len(xs)
	}
	return xs[i]
}

// at2 is at for blossom child lists.
func at2(xs []int, i int) int { return at(xs, i) }

// augmentBlossom rotates blossom b so that vertex v becomes its base,
// augmenting the matching along the internal path from v to the old base.
func (s *solver) augmentBlossom(b, v int) {
	t := v
	for s.blossomparent[t] != b {
		t = s.blossomparent[t]
	}
	if t >= s.n {
		s.augmentBlossom(t, v)
	}
	i := indexOf(s.blossomchilds[b], t)
	j := i
	var jstep, endptrick int
	if i&1 != 0 {
		j -= len(s.blossomchilds[b])
		jstep = 1
		endptrick = 0
	} else {
		jstep = -1
		endptrick = 1
	}
	for j != 0 {
		j += jstep
		t = at2(s.blossomchilds[b], j)
		p := at(s.blossomendps[b], j-endptrick) ^ endptrick
		if t >= s.n {
			s.augmentBlossom(t, s.endpoint[p])
		}
		j += jstep
		t = at2(s.blossomchilds[b], j)
		if t >= s.n {
			s.augmentBlossom(t, s.endpoint[p^1])
		}
		s.mate[s.endpoint[p]] = p ^ 1
		s.mate[s.endpoint[p^1]] = p
	}
	s.blossomchilds[b] = rotate(s.blossomchilds[b], i)
	s.blossomendps[b] = rotate(s.blossomendps[b], i)
	s.blossombase[b] = s.blossombase[s.blossomchilds[b][0]]
}

// augmentMatching flips matched/unmatched along the augmenting path through
// edge k, increasing the matching size by one.
func (s *solver) augmentMatching(k int) {
	for side := 0; side < 2; side++ {
		var sv, p int
		if side == 0 {
			sv, p = s.edges[k].U, 2*k+1
		} else {
			sv, p = s.edges[k].V, 2*k
		}
		for {
			bs := s.inblossom[sv]
			if bs >= s.n {
				s.augmentBlossom(bs, sv)
			}
			s.mate[sv] = p
			if s.labelend[bs] == -1 {
				break
			}
			t := s.endpoint[s.labelend[bs]]
			bt := s.inblossom[t]
			sv = s.endpoint[s.labelend[bt]]
			j := s.endpoint[s.labelend[bt]^1]
			if bt >= s.n {
				s.augmentBlossom(bt, j)
			}
			s.mate[j] = s.labelend[bt]
			p = s.labelend[bt] ^ 1
		}
	}
}

// solve runs the main stage loop and returns the vertex-to-mate map. It
// checks ctx on the edge-scan and dual-adjustment loops and abandons the
// search with ctx.Err() once the context fires.
func (s *solver) solve(ctx context.Context) ([]int, error) {
	n := s.n
	for stage := 0; stage < n; stage++ {
		for i := range s.label {
			s.label[i] = 0
		}
		for i := range s.bestedge {
			s.bestedge[i] = -1
		}
		for b := n; b < 2*n; b++ {
			s.blossombestedges[b] = nil
		}
		for i := range s.allowedge {
			s.allowedge[i] = false
		}
		s.queue = s.queue[:0]
		for v := 0; v < n; v++ {
			if s.mate[v] == -1 && s.label[s.inblossom[v]] == 0 {
				s.assignLabel(v, 1, -1)
			}
		}

		augmented := false
		for {
			for len(s.queue) > 0 && !augmented {
				v := s.queue[len(s.queue)-1]
				s.queue = s.queue[:len(s.queue)-1]
				for _, p := range s.neighbend[v] {
					if err := s.tick(ctx); err != nil {
						return nil, err
					}
					k := p / 2
					w := s.endpoint[p]
					if s.inblossom[v] == s.inblossom[w] {
						continue
					}
					var kslack int64
					if !s.allowedge[k] {
						kslack = s.slack(k)
						if kslack <= 0 {
							s.allowedge[k] = true
						}
					}
					if s.allowedge[k] {
						switch {
						case s.label[s.inblossom[w]] == 0:
							s.assignLabel(w, 2, p^1)
						case s.label[s.inblossom[w]] == 1:
							base := s.scanBlossom(v, w)
							if base >= 0 {
								s.addBlossom(base, k)
							} else {
								s.augmentMatching(k)
								augmented = true
							}
						case s.label[w] == 0:
							s.label[w] = 2
							s.labelend[w] = p ^ 1
						}
						if augmented {
							break
						}
					} else if s.label[s.inblossom[w]] == 1 {
						b := s.inblossom[v]
						if s.bestedge[b] == -1 || kslack < s.slack(s.bestedge[b]) {
							s.bestedge[b] = k
						}
					} else if s.label[w] == 0 {
						if s.bestedge[w] == -1 || kslack < s.slack(s.bestedge[w]) {
							s.bestedge[w] = k
						}
					}
				}
			}
			if augmented {
				break
			}

			// Compute the dual adjustment delta.
			if err := s.tick(ctx); err != nil {
				return nil, err
			}
			deltatype := 1
			var delta int64
			deltaedge, deltablossom := -1, -1
			delta = s.minVertexDual()
			for v := 0; v < n; v++ {
				if s.label[s.inblossom[v]] == 0 && s.bestedge[v] != -1 {
					d := s.slack(s.bestedge[v])
					if deltatype == -1 || d < delta {
						delta = d
						deltatype = 2
						deltaedge = s.bestedge[v]
					}
				}
			}
			for b := 0; b < 2*n; b++ {
				if s.blossomparent[b] == -1 && s.label[b] == 1 && s.bestedge[b] != -1 {
					d := s.slack(s.bestedge[b]) / 2
					if deltatype == -1 || d < delta {
						delta = d
						deltatype = 3
						deltaedge = s.bestedge[b]
					}
				}
			}
			for b := n; b < 2*n; b++ {
				if s.blossombase[b] >= 0 && s.blossomparent[b] == -1 && s.label[b] == 2 &&
					s.dualvar[b] < delta {
					delta = s.dualvar[b]
					deltatype = 4
					deltablossom = b
				}
			}

			// Apply delta to the dual variables.
			for v := 0; v < n; v++ {
				switch s.label[s.inblossom[v]] {
				case 1:
					s.dualvar[v] -= delta
				case 2:
					s.dualvar[v] += delta
				}
			}
			for b := n; b < 2*n; b++ {
				if s.blossombase[b] >= 0 && s.blossomparent[b] == -1 {
					switch s.label[b] {
					case 1:
						s.dualvar[b] += delta
					case 2:
						s.dualvar[b] -= delta
					}
				}
			}

			switch deltatype {
			case 1:
				// Optimum reached.
				augmented = false
			case 2:
				s.allowedge[deltaedge] = true
				i := s.edges[deltaedge].U
				if s.label[s.inblossom[i]] == 0 {
					i = s.edges[deltaedge].V
				}
				s.queue = append(s.queue, i)
			case 3:
				s.allowedge[deltaedge] = true
				s.queue = append(s.queue, s.edges[deltaedge].U)
			case 4:
				s.expandBlossom(deltablossom, false)
			}
			if deltatype == 1 {
				break
			}
		}
		if !augmented {
			break
		}
		for b := n; b < 2*n; b++ {
			if s.blossomparent[b] == -1 && s.blossombase[b] >= 0 &&
				s.label[b] == 1 && s.dualvar[b] == 0 {
				s.expandBlossom(b, true)
			}
		}
	}

	mate := make([]int, n)
	//lint:ignore busylint/ctxloop single O(n) extraction pass; the stage loop above observes ctx
	for v := 0; v < n; v++ {
		if s.mate[v] >= 0 {
			mate[v] = s.endpoint[s.mate[v]]
		} else {
			mate[v] = -1
		}
	}
	// Defensive symmetry repair is not needed — the algorithm maintains
	// mate symmetry — but verify in tests, not here.
	return mate, nil
}

func (s *solver) minVertexDual() int64 {
	m := s.dualvar[0]
	for v := 1; v < s.n; v++ {
		if s.dualvar[v] < m {
			m = s.dualvar[v]
		}
	}
	return m
}

func indexOf(xs []int, x int) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	panic("matching: element not found in blossom child list")
}

func reverse(xs []int) {
	for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
		xs[i], xs[j] = xs[j], xs[i]
	}
}

func rotate(xs []int, i int) []int {
	out := make([]int, 0, len(xs))
	out = append(out, xs[i:]...)
	return append(out, xs[:i]...)
}
