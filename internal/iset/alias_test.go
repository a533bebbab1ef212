package iset

import (
	"math/rand"
	"testing"
)

// TestSharedBoxesAreNeverWritten is the test that makes "shared, never
// cloned" safe to rely on.  It runs random sequences of every exported
// Box, Set and AffineMap operation over random operands, keeps the
// rendered text of every operand and every result, and checks after each
// step that none of them changed — so no operation writes a box it was
// given or one it handed out earlier.  Every box the package documents as
// the caller's to write (the constructors and the Box-returning methods)
// is then overwritten bound by bound, and again nothing may change.
func TestSharedBoxesAreNeverWritten(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		w := &aliasWorld{t: t, rng: rand.New(rand.NewSource(seed)), rank: 1 + int(seed)%4}
		for i := 0; i < 6; i++ {
			w.keepBox(w.randBox())
		}
		for i := 0; i < 4; i++ {
			w.keepSet(FromBoxes(w.randBox(), w.randBox(), w.randBox()))
		}
		for step := 0; step < 300; step++ {
			w.step()
			w.check("step", step)
		}
		for _, b := range w.writable {
			for k := range b.Lo {
				b.Lo[k], b.Hi[k] = -777, 777
			}
			// Lo must not be able to grow into Hi.
			if b.Rank() > 0 {
				hi0 := b.Hi[0]
				if _ = append(b.Lo, 12345); b.Hi[0] != hi0 {
					t.Fatalf("seed %d: append to Lo wrote Hi", seed)
				}
			}
		}
		w.check("overwriting the caller-owned boxes", len(w.writable))
	}
}

type aliasWorld struct {
	t    *testing.T
	rng  *rand.Rand
	rank int

	boxes    []Box
	boxText  []string
	sets     []Set
	setText  []string
	writable []Box // results the caller owns; never used as operands
}

func (w *aliasWorld) randBox() Box {
	lo, hi := make([]int, w.rank), make([]int, w.rank)
	for k := range lo {
		lo[k] = w.rng.Intn(16) - 8
		hi[k] = lo[k] + w.rng.Intn(9) - 1 // sometimes empty
	}
	b := NewBox(lo, hi)
	w.writable = append(w.writable, NewBox(lo, hi))
	lo[0], hi[0] = 99, -99 // NewBox copied its arguments
	return b
}

func (w *aliasWorld) keepBox(b Box) {
	if b.Rank() == w.rank {
		w.boxes = append(w.boxes, b)
		w.boxText = append(w.boxText, b.String())
	}
}

func (w *aliasWorld) keepSet(s Set) {
	if s.Rank() == w.rank || s.IsEmpty() {
		w.sets = append(w.sets, s)
		w.setText = append(w.setText, s.String())
	}
}

// fresh records a Box-returning operation: one result joins the operands,
// a second one is the caller's to overwrite at the end.
func (w *aliasWorld) fresh(op func() Box) {
	w.keepBox(op())
	w.writable = append(w.writable, op())
}

func (w *aliasWorld) check(when string, n int) {
	w.t.Helper()
	for i, b := range w.boxes {
		if got := b.String(); got != w.boxText[i] {
			w.t.Fatalf("rank %d, %s %d: box %d was %s, now %s", w.rank, when, n, i, w.boxText[i], got)
		}
	}
	for i, s := range w.sets {
		if got := s.String(); got != w.setText[i] {
			w.t.Fatalf("rank %d, %s %d: set %d was %s, now %s", w.rank, when, n, i, w.setText[i], got)
		}
	}
}

func (w *aliasWorld) step() {
	rng := w.rng
	a, b := w.boxes[rng.Intn(len(w.boxes))], w.boxes[rng.Intn(len(w.boxes))]
	s, u := w.sets[rng.Intn(len(w.sets))], w.sets[rng.Intn(len(w.sets))]
	dim, lo := rng.Intn(w.rank), rng.Intn(9)-4
	hi := lo + rng.Intn(6)
	off := make([]int, w.rank)
	for k := range off {
		off[k] = rng.Intn(7) - 3
	}
	m := Translation(off)
	m.Out[dim].Scale = 1 - 2*rng.Intn(2)
	switch rng.Intn(33) {
	case 0:
		w.keepBox(w.randBox())
	case 1:
		w.fresh(func() Box { return NewBox(a.Lo, b.Hi) })
	case 2:
		w.fresh(func() Box { return Point(a.Lo...) })
		w.writable = append(w.writable, Interval(lo, hi), MakeBox(w.rank))
	case 3:
		w.fresh(func() Box { return a.Intersect(b) })
	case 4:
		for _, p := range a.Subtract(b) {
			w.keepBox(p)
		}
	case 5:
		w.fresh(func() Box { return a.Translate(off) })
	case 6:
		w.fresh(func() Box { return a.Grow(dim, 1, 2) })
	case 7:
		w.fresh(func() Box { return a.WithDim(dim, lo, hi) })
	case 8:
		w.fresh(func() Box { return a.Insert(dim, lo, hi).Drop(dim + 1) })
	case 9:
		w.fresh(func() Box { return m.ImageBox(a) })
	case 10:
		w.fresh(func() Box { return m.PreimageBox(a, b) })
	case 11: // the read-only queries
		a.Rank()
		a.Empty()
		a.Card()
		a.Contains(b.Lo)
		a.Eq(b)
		a.Intersects(b)
		a.ContainsBox(b)
		a.Project(dim)
		a.Each(func(p []int) bool { p[0] = 0; return false })
		s.Rank()
		s.IsEmpty()
		s.Card()
		s.Contains(a.Hi)
		s.SubsetOf(u)
		s.Eq(u)
		s.Each(func(p []int) bool { p[0] = 0; return false })
	case 12:
		w.keepSet(FromBox(a))
	case 13:
		w.keepSet(FromBoxes(a, b))
	case 14:
		w.keepSet(EmptySet(w.rank).Union(s))
	case 15:
		bs := s.Boxes() // the slice is the caller's, the boxes are the set's
		for i, p := range bs {
			w.keepBox(p)
			bs[i] = Box{}
		}
	case 16:
		w.keepSet(s.Subtract(FromBox(a)).Union(FromBox(b)))
	case 17:
		w.keepSet(s.UnionBox(a))
	case 18:
		w.keepSet(s.Union(u))
	case 19:
		w.keepSet(s.Intersect(u))
	case 20:
		w.keepSet(s.IntersectBox(a))
	case 21:
		w.keepSet(s.Subtract(u))
	case 22:
		w.keepSet(s.SubtractBox(a))
	case 23:
		w.keepSet(s.Translate(off))
	case 24:
		if c, ok := s.BoundingBox(); ok {
			w.keepBox(c)
		}
	case 25:
		w.keepSet(s.Insert(dim, lo, hi).Drop(dim + 1))
	case 26:
		w.keepSet(s.Drop(dim).Insert(dim, lo, hi))
	case 27:
		w.keepSet(s.ClampDim(dim, lo, hi))
	case 28:
		w.keepSet(s.WithDim(dim, lo, hi))
	case 29:
		w.keepSet(m.Image(s))
	case 30:
		w.keepSet(m.Preimage(s, a))
	case 31:
		w.keepSet(s.Union(u).Subtract(s.Intersect(u)))
	case 32:
		w.keepSet(FromBoxes(s.Boxes()...).UnionBox(b))
	}
}
