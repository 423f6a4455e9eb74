package exact

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/rect"
)

// MaxRectN is the largest 2-D instance the rectangle oracle accepts.
// The search enumerates machine assignments in first-use canonical
// order — one representative per set partition, Bell(7) = 877 shapes —
// with branch-and-bound pruning, so 7 keeps the conformance harness
// (which runs the oracle on every generated 2-D instance and its
// metamorphic variants) effectively free.
const MaxRectN = 7

// MinBusyRect computes an optimal 2-D MinBusy schedule by exhaustive
// machine assignment: every partition of the jobs into machine groups
// with pointwise concurrency at most g, minimizing the summed union
// area. It is the ground truth closing the "no exact 2-D oracle" gap:
// with it, MinBusy2D conformance gets guarantee checks, not just
// certificate and bound checks.
//
// The branch-and-bound search checks ctx at every node and returns
// ctx.Err() once it fires.
func MinBusyRect(ctx context.Context, in job.RectInstance) (core.RectSchedule, error) {
	n := len(in.Jobs)
	if n > MaxRectN {
		return core.RectSchedule{}, fmt.Errorf("exact: %d rect jobs exceeds MaxRectN = %d", n, MaxRectN)
	}
	if err := in.Validate(); err != nil {
		return core.RectSchedule{}, err
	}
	s := core.RectSchedule{Instance: in, Machine: make([]int, n)}
	if n == 0 {
		return s, nil
	}

	b := &rectBound{
		in:       in,
		assign:   make([]int, n),
		best:     make([]int, n),
		bestCost: math.MaxInt64,
		groups:   make([][]rect.Rect, 0, n),
		costs:    make([]int64, 0, n),
	}
	if err := b.search(ctx, 0, 0); err != nil {
		return core.RectSchedule{}, err
	}
	copy(s.Machine, b.best)
	return s, nil
}

// MinBusyRectCost returns only the optimal 2-D cost.
func MinBusyRectCost(in job.RectInstance) (int64, error) {
	s, err := MinBusyRect(context.Background(), in)
	if err != nil {
		return 0, err
	}
	return s.Cost(), nil
}

// rectBound is the branch-and-bound state: jobs are assigned in order,
// machines appear in first-use order (so each set partition is visited
// exactly once), and a branch is cut as soon as the partial cost —
// union areas only grow as jobs are added — reaches the incumbent.
type rectBound struct {
	in       job.RectInstance
	assign   []int
	best     []int
	bestCost int64
	groups   [][]rect.Rect // rects per open machine
	costs    []int64       // union area per open machine
	partial  int64         // sum of costs
}

func (b *rectBound) search(ctx context.Context, i int, used int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if b.partial >= b.bestCost {
		return nil
	}
	if i == len(b.in.Jobs) {
		b.bestCost = b.partial
		copy(b.best, b.assign)
		return nil
	}
	r := b.in.Jobs[i].Rect
	// Existing machines, then (canonically) at most one fresh machine.
	for m := 0; m <= used && m < len(b.in.Jobs); m++ {
		if m == used {
			b.groups = append(b.groups, []rect.Rect{r})
			b.costs = append(b.costs, r.Area())
			b.partial += r.Area()
			b.assign[i] = m
			if err := b.search(ctx, i+1, used+1); err != nil {
				return err
			}
			b.partial -= r.Area()
			b.groups = b.groups[:used]
			b.costs = b.costs[:used]
			continue
		}
		grown := append(b.groups[m], r)
		if rect.MaxConcurrency(grown) > b.in.G {
			continue
		}
		oldCost := b.costs[m]
		newCost := rect.UnionArea(grown)
		b.groups[m] = grown
		b.costs[m] = newCost
		b.partial += newCost - oldCost
		b.assign[i] = m
		if err := b.search(ctx, i+1, used); err != nil {
			return err
		}
		b.partial -= newCost - oldCost
		b.costs[m] = oldCost
		b.groups[m] = b.groups[m][:len(grown)-1]
	}
	return nil
}
