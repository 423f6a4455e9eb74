// Package pairs is the "released on every path" analysis shared by
// busylint's acquire/release analyzers (locksafe for mutexes, spanend
// for trace spans). An analyzer says which syntax acquires and which
// releases a resource; Check runs a forward may-held dataflow over the
// function's CFG and returns every resource that may still be held when
// the function exits.
//
// The rules, common to every resource kind:
//
//   - a resource is held from its acquisition until a release on the
//     same path; at a merge it is held if it is held on any incoming
//     path, and the earliest acquisition is the one reported;
//   - a reached `defer <release>` guarantees the release at every later
//     exit, normal or panicking: the resource stays held (it still
//     orders against later acquisitions) but cannot leak;
//   - a nested function literal is a function of its own: Funcs visits
//     it separately, and Check skips its body.
//
// Findings never come from inside the fixpoint, where a block transfers
// many times: Check solves first, then replays each reachable block
// once on its solved input, so the Acquired hook sees each reachable
// acquisition site exactly once, in block order.
package pairs

import (
	"go/ast"
	"go/token"
	"maps"
	"sort"

	"repro/internal/analysis/cfg"
	"repro/internal/analysis/dataflow"
)

// Op is what one node does to a resource.
type Op int

const (
	None Op = iota
	Acquire
	Release
)

// State is one held resource: where it was first acquired, and whether
// a `defer` release reached on every path to here already guarantees
// its release at exit.
type State struct {
	Pos      token.Pos
	Deferred bool
}

// Held is the dataflow fact: the resources that may be held, by key.
type Held[K comparable] map[K]State

// Analysis describes one kind of paired resource.
type Analysis[K comparable] struct {
	// Classify reports whether n acquires or releases the resource key.
	// It must be pure (report nothing, record nothing): Check calls it
	// on every pass of the fixpoint. An acquisition is located at n.
	Classify func(n ast.Node) (K, Op)
	// Acquired, if set, is called once per reachable acquisition with
	// the resources held just before it. It must not modify held.
	Acquired func(key K, pos token.Pos, held Held[K])
}

// Leak is a resource that may still be held at function exit with no
// reached deferred release.
type Leak[K comparable] struct {
	Key K
	Pos token.Pos // first acquisition
}

// Check runs the analysis over one function body and returns its leaks
// sorted by position.
func Check[K comparable](body *ast.BlockStmt, a Analysis[K]) []Leak[K] {
	g := cfg.New(body)
	res := dataflow.Forward(g, dataflow.Problem[Held[K]]{
		Entry:    Held[K]{},
		Join:     join[K],
		Transfer: func(b *cfg.Block, in Held[K]) Held[K] { return a.transfer(b, in, nil) },
		Equal:    maps.Equal[Held[K], Held[K]],
	})
	if a.Acquired != nil {
		for _, b := range g.Blocks {
			if in, ok := res.In[b]; ok { // unreachable blocks have no fact
				a.transfer(b, in, a.Acquired)
			}
		}
	}
	var leaks []Leak[K]
	for k, st := range res.In[g.Exit] {
		if !st.Deferred {
			leaks = append(leaks, Leak[K]{Key: k, Pos: st.Pos})
		}
	}
	sort.Slice(leaks, func(i, j int) bool { return leaks[i].Pos < leaks[j].Pos })
	return leaks
}

// Funcs calls check on the body of every function declaration and
// function literal in files, nested literals included.
func Funcs(files []*ast.File, check func(body *ast.BlockStmt)) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					check(fn.Body)
				}
			case *ast.FuncLit:
				check(fn.Body)
			}
			return true
		})
	}
}

// join is the may-union: the earliest acquisition wins, and the
// release-at-exit guarantee survives only if every path holding the
// resource has it.
func join[K comparable](a, b Held[K]) Held[K] {
	u := maps.Clone(a)
	for k, v := range b {
		if w, ok := u[k]; ok {
			v.Pos = min(v.Pos, w.Pos)
			v.Deferred = v.Deferred && w.Deferred
		}
		u[k] = v
	}
	return u
}

// transfer applies one block's acquisitions and releases to in, calling
// acquired (when non-nil) at each acquisition.
func (a Analysis[K]) transfer(b *cfg.Block, in Held[K], acquired func(K, token.Pos, Held[K])) Held[K] {
	out := maps.Clone(in)
	for _, n := range b.Stmts {
		if d, ok := n.(*ast.DeferStmt); ok {
			if key, op := a.Classify(d.Call); op == Release {
				if st, held := out[key]; held {
					st.Deferred = true
					out[key] = st
				}
			}
			continue
		}
		ast.Inspect(n, func(m ast.Node) bool {
			if _, isLit := m.(*ast.FuncLit); isLit {
				return false // a closure's resources are its own function's
			}
			switch key, op := a.Classify(m); op {
			case Acquire:
				if acquired != nil {
					acquired(key, m.Pos(), out)
				}
				if _, dup := out[key]; !dup {
					out[key] = State{Pos: m.Pos()}
				}
			case Release:
				delete(out, key)
			}
			return true
		})
	}
	return out
}
