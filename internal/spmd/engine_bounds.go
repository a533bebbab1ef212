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

type guardKind uint8

const (
	guardNever guardKind = iota // empty iteration set: never executes
	guardBox                    // single box: lo/hi
	guardSet                    // general set: its boxes
)

// stmtGuard is one statement's per-frame membership test.
type stmtGuard struct {
	kind   guardKind
	lo, hi []int
	set    iset.Set
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
		switch bs := s.SharedBoxes(); {
		case s.IsEmpty():
			f.guards[i] = stmtGuard{kind: guardNever}
		case len(bs) == 1 && bs[0].Rank() == len(gs.nestSlots):
			// The set's own box, shared and only ever read.
			f.guards[i] = stmtGuard{kind: guardBox, lo: bs[0].Lo, hi: bs[0].Hi}
		default:
			// Multi-box set, or a rank mismatch against the nest (the
			// precheck then bails).
			f.guards[i] = stmtGuard{kind: guardSet, set: s}
		}
	}

	f.clamps = slices.Grow(f.clamps[:0], len(pp.clamps))[:len(pp.clamps)]
	for i, cs := range pp.clamps {
		c := clampRange{lo: 0, hi: -1} // all members empty: run nothing
		for _, gi := range cs.members {
			g := &f.guards[gi]
			switch g.kind {
			case guardNever:
				// contributes no iterations
			case guardBox:
				if cs.pos < len(g.lo) {
					if c.lo > c.hi {
						c = clampRange{lo: g.lo[cs.pos], hi: g.hi[cs.pos]}
					} else {
						c.lo = min(c.lo, g.lo[cs.pos])
						c.hi = max(c.hi, g.hi[cs.pos])
					}
				} else {
					c = clampRange{lo: math.MinInt, hi: math.MaxInt}
				}
			default:
				// General set: no cheap bound — disable the clamp.
				c = clampRange{lo: math.MinInt, hi: math.MaxInt}
			}
			if c.lo == math.MinInt && c.hi == math.MaxInt {
				break
			}
		}
		f.clamps[i] = c
	}
}
