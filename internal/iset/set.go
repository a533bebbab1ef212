package iset

import (
	"slices"
)

// Set is a finite union of integer boxes of a common rank.  The zero value
// is the empty set of rank -1 (rank adapts to the first box added).
// Sets are immutable: all methods return new sets, and a result shares
// the boxes of its operands wherever an operation leaves a box whole
// (see Box for the rule that makes this safe).
//
// Internal invariant: boxes are non-empty and pairwise disjoint.  This
// makes Card a simple sum and Subset/Eq exact.
type Set struct {
	rank  int
	boxes []Box
}

// Empty returns the empty set of the given rank.
func EmptySet(rank int) Set { return Set{rank: rank} }

// FromBox returns the set holding exactly the given box.
func FromBox(b Box) Set {
	s := Set{rank: b.Rank()}
	if !b.Empty() {
		s.boxes = []Box{b}
	}
	return s
}

// FromBoxes returns the union of the given boxes.
func FromBoxes(bs ...Box) Set {
	if len(bs) == 0 {
		return Set{rank: -1}
	}
	s := EmptySet(bs[0].Rank())
	for _, b := range bs {
		s = s.UnionBox(b)
	}
	return s
}

// Rank returns the dimensionality of the set's tuples (-1 if indeterminate).
func (s Set) Rank() int { return s.rank }

// Boxes returns the disjoint boxes comprising the set, in canonical order.
func (s Set) Boxes() []Box {
	out := slices.Clone(s.boxes)
	sortBoxes(out, nil)
	return out
}

// SharedBoxes returns the set's own boxes in the order it holds them —
// no copy and no canonical order, for a reader that visits them all and
// is indifferent to order.  Under the sharing rule the caller writes
// neither the boxes nor the slice.
func (s Set) SharedBoxes() []Box { return s.boxes }

// IsEmpty reports whether the set contains no points.
func (s Set) IsEmpty() bool { return len(s.boxes) == 0 }

// Card returns the number of points in the set.
func (s Set) Card() int64 {
	var n int64
	for _, b := range s.boxes {
		n += b.Card()
	}
	return n
}

// Contains reports whether tuple p is in the set.
func (s Set) Contains(p []int) bool {
	for _, b := range s.boxes {
		if b.Contains(p) {
			return true
		}
	}
	return false
}

func (s Set) checkRank(t Set) {
	if len(s.boxes) > 0 && len(t.boxes) > 0 && s.rank != t.rank {
		panic("iset: set rank mismatch")
	}
}

// rankOr returns the set's rank, or the other set's rank when this set
// is empty (the zero value Set adapts to its first operand).
func (s Set) rankOr(t Set) int {
	if len(s.boxes) > 0 {
		return s.rank
	}
	return t.rank
}

// UnionBox returns s ∪ {b}, preserving disjointness by inserting only the
// parts of b not already covered.
func (s Set) UnionBox(b Box) Set { return s.unionBox(b, nil) }

// unionBox is UnionBox building on a.
func (s Set) unionBox(b Box, a *Arena) Set {
	if b.Empty() {
		return s
	}
	if s.rank < 0 {
		s.rank = b.Rank()
	}
	if covered(b, s.boxes) {
		return s
	}
	n := len(s.boxes)
	out := Set{rank: s.rank, boxes: append(append(a.list(n+1), s.boxes...), b)}
	scratch := a.scratchList()
	for _, have := range s.boxes {
		out.boxes, scratch = a.cutTail(out.boxes, n, have, scratch)
	}
	a.keepScratch(scratch)
	if len(out.boxes) == n {
		return s
	}
	return out.coalesce(a)
}

// covered reports whether one of the boxes alone contains b.
func covered(b Box, boxes []Box) bool {
	for _, have := range boxes {
		if have.ContainsBox(b) {
			return true
		}
	}
	return false
}

// cutTail replaces bs[from:] by the pieces of those boxes outside c, in
// order, made on a; bs must be the caller's own.  scratch is handed back
// for reuse.
func (a *Arena) cutTail(bs []Box, from int, c Box, scratch []Box) ([]Box, []Box) {
	for from < len(bs) && !bs[from].Intersects(c) {
		from++
	}
	if from == len(bs) {
		return bs, scratch
	}
	scratch = append(scratch[:0], bs[from:]...)
	bs = bs[:from]
	for _, f := range scratch {
		bs = f.appendMinus(bs, c, a)
	}
	return bs, scratch
}

// Union returns s ∪ t.
func (s Set) Union(t Set) Set {
	s.checkRank(t)
	out := s
	out.rank = s.rankOr(t)
	for _, b := range t.boxes {
		out = out.UnionBox(b)
	}
	return out
}

// Intersect returns s ∩ t.
func (s Set) Intersect(t Set) Set {
	s.checkRank(t)
	out := Set{rank: s.rankOr(t)}
	for _, a := range s.boxes {
		for _, b := range t.boxes {
			// Disjointness of s's boxes ensures the pieces a∩b are
			// disjoint across a; across b they are disjoint because
			// t's boxes are disjoint.
			switch {
			case !a.Intersects(b):
			case b.ContainsBox(a):
				out.boxes = append(out.boxes, a)
			case a.ContainsBox(b):
				out.boxes = append(out.boxes, b)
			default:
				out.boxes = append(out.boxes, a.Intersect(b))
			}
		}
	}
	return out.coalesce(nil)
}

// IntersectBox returns s ∩ {b}.
func (s Set) IntersectBox(b Box) Set { return s.Intersect(FromBox(b)) }

// Subtract returns s − t.
func (s Set) Subtract(t Set) Set {
	s.checkRank(t)
	out := Set{rank: s.rank}
	var heap *Arena // cutTail's pieces and scratch
	var scratch []Box
	for _, a := range s.boxes {
		if covered(a, t.boxes) {
			continue
		}
		n := len(out.boxes)
		out.boxes = append(out.boxes, a)
		for _, b := range t.boxes {
			if out.boxes, scratch = heap.cutTail(out.boxes, n, b, scratch); len(out.boxes) == n {
				break
			}
		}
	}
	return out.coalesce(nil)
}

// SubtractBox returns s − {b}.
func (s Set) SubtractBox(b Box) Set { return s.Subtract(FromBox(b)) }

// SubsetOf reports whether s ⊆ t.
func (s Set) SubsetOf(t Set) bool { return s.Subtract(t).IsEmpty() }

// Eq reports whether the two sets contain exactly the same points.
func (s Set) Eq(t Set) bool { return s.SubsetOf(t) && t.SubsetOf(s) }

// Translate returns the set shifted by the offset vector.
func (s Set) Translate(off []int) Set {
	out := Set{rank: s.rank, boxes: make([]Box, len(s.boxes))}
	for i, b := range s.boxes {
		out.boxes[i] = b.Translate(off)
	}
	return out
}

// BoundingBox returns the smallest box containing the set.  The second
// result is false if the set is empty.
func (s Set) BoundingBox() (Box, bool) {
	if s.IsEmpty() {
		return Box{}, false
	}
	bb := s.boxes[0].clone()
	for _, b := range s.boxes[1:] {
		for k := range bb.Lo {
			bb.Lo[k] = min(bb.Lo[k], b.Lo[k])
			bb.Hi[k] = max(bb.Hi[k], b.Hi[k])
		}
	}
	return bb, true
}

// Each calls fn for every tuple in the set.  The tuple slice is reused; fn
// must copy it to retain it.  Iteration order is canonical box order, then
// lexicographic within each box.
func (s Set) Each(fn func(p []int) bool) bool {
	bs := s.Boxes()
	for _, b := range bs {
		if !b.Each(fn) {
			return false
		}
	}
	return true
}

// Drop projects away dimension dim (existential quantification).  Note
// that projection of a union of boxes is again a union of boxes.
func (s Set) Drop(dim int) Set {
	out := EmptySet(s.rank - 1)
	for _, b := range s.boxes {
		out = out.UnionBox(b.Drop(dim))
	}
	return out
}

// Insert adds a new dimension [lo:hi] at index dim to every box
// (the "vectorization" step of CP translation: an untranslated subscript
// is expanded through the loop range).
func (s Set) Insert(dim, lo, hi int) Set {
	out := EmptySet(s.rank + 1)
	for _, b := range s.boxes {
		out = out.UnionBox(b.Insert(dim, lo, hi))
	}
	return out
}

// ClampDim intersects dimension dim of every box with [lo:hi].
func (s Set) ClampDim(dim, lo, hi int) Set {
	out := EmptySet(s.rank)
	for _, b := range s.boxes {
		nb := b.clone()
		nb.Lo[dim] = max(nb.Lo[dim], lo)
		nb.Hi[dim] = min(nb.Hi[dim], hi)
		out = out.UnionBox(nb)
	}
	return out
}

// WithDim replaces dimension dim of every box with [lo:hi].
func (s Set) WithDim(dim, lo, hi int) Set {
	out := EmptySet(s.rank)
	for _, b := range s.boxes {
		out = out.UnionBox(b.WithDim(dim, lo, hi))
	}
	return out
}

// coalesce merges boxes that are adjacent along one dimension and equal in
// all others, keeping the representation small.  It preserves disjointness.
// It works in place: s.boxes must be the caller's own slice, opened on a
// (nil: the heap), which coalesce keeps.
func (s Set) coalesce(a *Arena) Set {
	boxes := s.boxes
	changed := len(boxes) > 1
	for changed {
		changed = false
	outer:
		for i := 0; i < len(boxes); i++ {
			for j := i + 1; j < len(boxes); j++ {
				if m, ok := a.tryMerge(boxes[i], boxes[j]); ok {
					boxes[i] = m
					boxes = append(boxes[:j], boxes[j+1:]...)
					changed = true
					break outer
				}
			}
		}
	}
	return Set{rank: s.rank, boxes: a.keep(boxes)}
}

// tryMerge merges two boxes iff they agree in all dimensions except one,
// where they are adjacent or would union to a contiguous interval.
func (ar *Arena) tryMerge(a, b Box) (Box, bool) {
	if a.Rank() != b.Rank() {
		return Box{}, false
	}
	diff := -1
	for k := range a.Lo {
		if a.Lo[k] != b.Lo[k] || a.Hi[k] != b.Hi[k] {
			if diff >= 0 {
				return Box{}, false
			}
			diff = k
		}
	}
	if diff < 0 {
		// Identical boxes (should not happen under disjointness).
		return a, true
	}
	// Contiguity check along diff: [aLo:aHi] ∪ [bLo:bHi] must be an interval.
	lo1, hi1 := a.Lo[diff], a.Hi[diff]
	lo2, hi2 := b.Lo[diff], b.Hi[diff]
	if lo2 < lo1 {
		lo1, hi1, lo2, hi2 = lo2, hi2, lo1, hi1
	}
	if lo2 > hi1+1 {
		return Box{}, false
	}
	m := ar.clone(a)
	m.Lo[diff] = lo1
	m.Hi[diff] = max(hi1, hi2)
	return m, true
}

// String renders the set as a union of boxes in canonical order.
func (s Set) String() string {
	if s.IsEmpty() {
		return "{}"
	}
	text := make([]byte, 0, 48)
	for i, b := range s.Boxes() {
		if i > 0 {
			text = append(text, " u "...)
		}
		text = b.appendText(text)
	}
	return string(text)
}
