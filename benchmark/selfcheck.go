package main

import (
	"fmt"
	"math"
	"time"
)

// runSelfcheck measures every selected workload twice in one process —
// second pass in reverse order, so no workload always runs on the same
// side of another — and compares the passes metric by metric against
// the committed bounds.  It returns the exit code: non-zero when an
// exact metric differs at all or a host metric differs by more than its
// bound.  A host time whose loop drifted (noise.block_spread) by more
// than its bound is reported as unresolved instead: the box was too
// noisy to say.
func runSelfcheck(selected []workload, e env, limit time.Duration) int {
	passes := [2]map[string]*result{{}, {}}
	for pass := range passes {
		order := append([]workload(nil), selected...)
		if pass == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			res, err := measure(w, e, limit)
			if err != nil {
				fatal(1, "%v", err)
			}
			res.print()
			passes[pass][w.name] = res
		}
	}
	fmt.Printf("\n%-15s %-16s %14s %14s %9s %7s  %s\n", "workload", "metric", "first", "second", "diff", "bound", "verdict")
	code := 0
	for _, w := range selected {
		a, b := passes[0][w.name], passes[1][w.name]
		if !a.correct() || !b.correct() {
			fmt.Printf("%-15s failed ops: %d and %d\n", w.name, a.failed, b.failed)
			code = 1
		}
		noise := math.Max(a.spread, b.spread)
		for _, m := range endToEnd {
			x, y := a.metrics[m.Name], b.metrics[m.Name]
			diff := math.Abs(relDiff(x, y))
			verdict := "ok"
			switch {
			case m.exact && math.Float64bits(x) != math.Float64bits(y):
				verdict, code = "DIFFERS (exact metric)", 1
			case m.exact:
			case diff > m.Bound && noise > m.Bound && (m.Unit == "ms" || m.Unit == "s"):
				verdict = fmt.Sprintf("unresolved (block spread %.3f)", noise)
			case diff > m.Bound:
				verdict, code = "OUTSIDE BOUND", 1
			}
			fmt.Printf("%-15s %-16s %14.6g %14.6g %8.2f%% %6.0f%%  %s\n", w.name, m.Name, x, y, 100*diff, 100*m.Bound, verdict)
		}
	}
	return code
}
