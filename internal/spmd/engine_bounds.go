package spmd

// engine_bounds.go derives, once per procedure activation — at its first
// unit invocation, into the slices the frame keeps from one activation of
// the procedure to the next on its rank — the per-rank iteration guards
// and loop-bound clamps a kernel unit's precheck packs into its bounds[].
// The interpreter answers "does this rank run statement s at point p?"
// with a general iset.Set membership scan on every iteration point; a
// unit tests the point against boxes the precheck packed once per
// invocation, and for innermost loops the member boxes additionally
// tighten the loop range itself so non-member points are never visited
// at all.

import (
	"math"
	"slices"

	"dhpf/internal/iset"
)

// stmtGuard is one statement's per-frame membership test: the boxes of
// its iteration set, shared with the set and only ever read (none: it
// never executes), and whether their rank differs from the statement's
// nest (badRank: the precheck then bails).
type stmtGuard struct {
	boxes   []iset.Box
	badRank bool
}

// clampRange is a conservative [lo, hi] window covering every iteration
// of a pure loop on which at least one member statement executes.
type clampRange struct {
	lo, hi int
}

// buildGuards rebuilds f.guards and f.clamps from the activation's
// iteration sets, in the backing arrays an earlier activation of the
// procedure left, overwriting every entry whole, and clears f.proofs: no
// box of the new guards is proven yet.  Guards are exact restatements of
// the interpreter's membership test; clamps may only discard iterations
// on which no member statement would execute.
func buildGuards(f *frame, pp *procPlan) {
	f.proofs = slices.Grow(f.proofs[:0], pp.nAssigns)[:pp.nAssigns]
	clear(f.proofs)
	f.units = slices.Grow(f.units[:0], pp.nUnits)[:pp.nUnits]
	clear(f.units)
	f.lvls = slices.Grow(f.lvls[:0], pp.nLevels)[:pp.nLevels]
	f.kas = slices.Grow(f.kas[:0], pp.nArrays)[:pp.nArrays]
	f.outer = slices.Grow(f.outer[:0], pp.nOuter)[:pp.nOuter]

	f.guards = slices.Grow(f.guards[:0], len(pp.guardStmts))[:len(pp.guardStmts)]
	for i, gs := range pp.guardStmts {
		s := f.iters[gs.id]
		f.guards[i] = stmtGuard{boxes: s.SharedBoxes(), badRank: !s.IsEmpty() && s.Rank() != len(gs.nestSlots)}
	}

	// No boxes contribute nothing; one box of the right rank clamps to its
	// dimension; anything else has no cheap bound and disables the clamp.
	f.clamps = slices.Grow(f.clamps[:0], len(pp.clamps))[:len(pp.clamps)]
	for i, cs := range pp.clamps {
		c := clampRange{lo: 0, hi: -1} // all members empty: run nothing
		for _, gi := range cs.members {
			g := &f.guards[gi]
			if len(g.boxes) == 0 {
				continue
			}
			if len(g.boxes) > 1 || g.badRank || cs.pos >= g.boxes[0].Rank() {
				c = clampRange{lo: math.MinInt, hi: math.MaxInt}
				break
			}
			if b := g.boxes[0]; c.lo > c.hi {
				c = clampRange{lo: b.Lo[cs.pos], hi: b.Hi[cs.pos]}
			} else {
				c.lo, c.hi = min(c.lo, b.Lo[cs.pos]), max(c.hi, b.Hi[cs.pos])
			}
		}
		f.clamps[i] = c
	}
}
