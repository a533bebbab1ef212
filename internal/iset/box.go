// Package iset implements the symbolic integer-set framework that underlies
// every data-parallel analysis in the dhpf compiler, following the approach
// of the Rice dHPF compiler (Adve & Mellor-Crummey, PLDI'98; SC'98 §2).
//
// The key quantities the compiler manipulates — iteration sets of loops,
// data sets of array references, processor sets of distributions, and
// communication sets — are all represented as finite unions of integer
// boxes (axis-aligned products of inclusive intervals).  For the programs
// the compiler accepts (affine subscripts with unit coefficients, BLOCK
// and BLOCK(n) distributions), every set that arises during analysis is
// exactly a union of boxes, so the algebra here is exact, not an
// approximation.  Symbolic parameters (processor ids, block sizes, grid
// extents) are bound to concrete values before sets are constructed; the
// compiler evaluates its set equations per representative processor.
package iset

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
)

// Box is an axis-aligned product of inclusive integer intervals
// [Lo[0]:Hi[0]] x ... x [Lo[d-1]:Hi[d-1]].  A Box with any Lo[k] > Hi[k]
// is empty.  Boxes are shared, not copied: a set keeps the boxes it is
// given and hands the same boxes out again, so a box is read forever and
// never written once anything else has seen it.  Only the constructors
// (MakeBox, NewBox, Interval, Point and the Box methods that return a
// Box) return a box the caller may still write.
type Box struct {
	Lo, Hi []int
}

// MakeBox returns the rank-n box [0:0]ⁿ for the caller to fill before
// anything else sees it.  Lo and Hi are the two halves of one array,
// each clipped to its own capacity.
func MakeBox(n int) Box {
	buf := make([]int, 2*n)
	return Box{Lo: buf[:n:n], Hi: buf[n:]}
}

// NewBox returns the box with the given inclusive bounds.
// It panics if the slices have different lengths.
func NewBox(lo, hi []int) Box {
	if len(lo) != len(hi) {
		panic(fmt.Sprintf("iset: NewBox rank mismatch %d vs %d", len(lo), len(hi)))
	}
	b := MakeBox(len(lo))
	copy(b.Lo, lo)
	copy(b.Hi, hi)
	return b
}

// Interval returns a 1-D box [lo:hi].
func Interval(lo, hi int) Box { return NewBox([]int{lo}, []int{hi}) }

// Point returns the degenerate box holding exactly the given tuple.
func Point(coords ...int) Box { return NewBox(coords, coords) }

// Rank returns the dimensionality of the box.
func (b Box) Rank() int { return len(b.Lo) }

// Empty reports whether the box contains no integer points.
func (b Box) Empty() bool {
	for k := range b.Lo {
		if b.Lo[k] > b.Hi[k] {
			return true
		}
	}
	return false
}

// Card returns the number of integer points in the box.
func (b Box) Card() int64 {
	n := int64(1)
	for k := range b.Lo {
		w := int64(b.Hi[k]) - int64(b.Lo[k]) + 1
		if w <= 0 {
			return 0
		}
		n *= w
	}
	return n
}

// Contains reports whether the tuple p lies inside the box.
func (b Box) Contains(p []int) bool {
	if len(p) != b.Rank() {
		return false
	}
	for k := range p {
		if p[k] < b.Lo[k] || p[k] > b.Hi[k] {
			return false
		}
	}
	return true
}

// Eq reports whether two boxes denote the same point set.
func (b Box) Eq(c Box) bool {
	if b.Rank() != c.Rank() {
		return false
	}
	if b.Empty() && c.Empty() {
		return true
	}
	if b.Empty() != c.Empty() {
		return false
	}
	for k := range b.Lo {
		if b.Lo[k] != c.Lo[k] || b.Hi[k] != c.Hi[k] {
			return false
		}
	}
	return true
}

// Intersect returns the intersection of two boxes of equal rank.
func (b Box) Intersect(c Box) Box {
	if b.Rank() != c.Rank() {
		panic("iset: Intersect rank mismatch")
	}
	out := MakeBox(b.Rank())
	for k := range b.Lo {
		out.Lo[k] = max(b.Lo[k], c.Lo[k])
		out.Hi[k] = min(b.Hi[k], c.Hi[k])
	}
	return out
}

// Intersects reports whether the two boxes share at least one point.
func (b Box) Intersects(c Box) bool {
	if b.Rank() != c.Rank() {
		panic("iset: Intersect rank mismatch")
	}
	for k := range b.Lo {
		if max(b.Lo[k], c.Lo[k]) > min(b.Hi[k], c.Hi[k]) {
			return false
		}
	}
	return true
}

// ContainsBox reports whether c ⊆ b.
func (b Box) ContainsBox(c Box) bool {
	if c.Empty() {
		return true
	}
	if b.Empty() {
		return false
	}
	for k := range b.Lo {
		if c.Lo[k] < b.Lo[k] || c.Hi[k] > b.Hi[k] {
			return false
		}
	}
	return true
}

// Subtract returns b − c as a slice of disjoint boxes.  The result has at
// most 2·rank boxes (the classic axis-sweep decomposition); it is b
// itself when c cuts nothing.
func (b Box) Subtract(c Box) []Box { return b.appendMinus(nil, c, nil) }

// appendMinus appends the boxes of b − c, made on a, to dst.
func (b Box) appendMinus(dst []Box, c Box, a *Arena) []Box {
	if b.Empty() {
		return dst
	}
	if !b.Intersects(c) {
		return append(dst, b)
	}
	if c.ContainsBox(b) {
		return dst
	}
	rem := a.clone(b)
	for k := range b.Lo {
		if lo := c.Lo[k]; rem.Lo[k] < lo {
			dst = append(dst, a.withDim(rem, k, rem.Lo[k], lo-1))
			rem.Lo[k] = lo
		}
		if hi := c.Hi[k]; rem.Hi[k] > hi {
			dst = append(dst, a.withDim(rem, k, hi+1, rem.Hi[k]))
			rem.Hi[k] = hi
		}
	}
	return dst
}

// Translate returns the box shifted by the offset vector.
func (b Box) Translate(off []int) Box {
	if len(off) != b.Rank() {
		panic("iset: Translate rank mismatch")
	}
	out := b.clone()
	for k := range off {
		out.Lo[k] += off[k]
		out.Hi[k] += off[k]
	}
	return out
}

// Grow returns the box widened by lo points downward and hi points upward
// in dimension dim (overlap-area construction).
func (b Box) Grow(dim, lo, hi int) Box {
	out := b.clone()
	out.Lo[dim] -= lo
	out.Hi[dim] += hi
	return out
}

// WithDim returns a copy of the box with dimension dim replaced by [lo:hi].
func (b Box) WithDim(dim, lo, hi int) Box {
	out := b.clone()
	out.Lo[dim] = lo
	out.Hi[dim] = hi
	return out
}

// Project returns the 1-D interval of dimension dim.
func (b Box) Project(dim int) (lo, hi int) { return b.Lo[dim], b.Hi[dim] }

// Drop returns the box with dimension dim removed (projection away).
func (b Box) Drop(dim int) Box {
	out := MakeBox(b.Rank() - 1)
	copy(out.Lo, b.Lo[:dim])
	copy(out.Lo[dim:], b.Lo[dim+1:])
	copy(out.Hi, b.Hi[:dim])
	copy(out.Hi[dim:], b.Hi[dim+1:])
	return out
}

// Insert returns the box with a new dimension [lo:hi] inserted at index dim.
func (b Box) Insert(dim, lo, hi int) Box {
	out := MakeBox(b.Rank() + 1)
	copy(out.Lo, b.Lo[:dim])
	copy(out.Lo[dim+1:], b.Lo[dim:])
	copy(out.Hi, b.Hi[:dim])
	copy(out.Hi[dim+1:], b.Hi[dim:])
	out.Lo[dim], out.Hi[dim] = lo, hi
	return out
}

func (b Box) clone() Box {
	return NewBox(b.Lo, b.Hi)
}

// String renders the box in the paper's bracket notation, e.g.
// "[1:62, 17, 1:62]".
func (b Box) String() string { return string(b.appendText(make([]byte, 0, 48))) }

func (b Box) appendText(dst []byte) []byte {
	if b.Empty() {
		return append(dst, "[]"...)
	}
	dst = append(dst, '[')
	for k := range b.Lo {
		if k > 0 {
			dst = append(dst, ", "...)
		}
		dst = strconv.AppendInt(dst, int64(b.Lo[k]), 10)
		if b.Lo[k] != b.Hi[k] {
			dst = append(dst, ':')
			dst = strconv.AppendInt(dst, int64(b.Hi[k]), 10)
		}
	}
	return append(dst, ']')
}

// Each calls fn for every tuple in the box in lexicographic order.  The
// tuple slice is reused between calls; fn must copy it to retain it.
// Each stops early (returning false) if fn returns false.
func (b Box) Each(fn func(p []int) bool) bool {
	if b.Empty() {
		return true
	}
	p := make([]int, b.Rank())
	copy(p, b.Lo)
	for {
		if !fn(p) {
			return false
		}
		k := b.Rank() - 1
		for k >= 0 {
			p[k]++
			if p[k] <= b.Hi[k] {
				break
			}
			p[k] = b.Lo[k]
			k--
		}
		if k < 0 {
			return true
		}
	}
}

// sortBoxes puts boxes in canonical order: the byte order of their
// rendered text ("[10:12]" before "[2:3]"), which every report, emitted
// node program and schedule golden depends on.  Each box is rendered
// once, into a's scratch (fresh memory when a is nil).
func sortBoxes(bs []Box, a *Arena) {
	if len(bs) < 2 {
		return
	}
	var text []byte
	var ks []keyedBox
	if a != nil {
		text, ks = a.text[:0], a.keyed[:0]
	} else {
		text, ks = make([]byte, 0, 32*len(bs)), make([]keyedBox, 0, len(bs))
	}
	for _, b := range bs {
		lo := len(text)
		text = b.appendText(text)
		ks = append(ks, keyedBox{b, lo, len(text)})
	}
	slices.SortFunc(ks, func(x, y keyedBox) int { return bytes.Compare(text[x.lo:x.hi], text[y.lo:y.hi]) })
	for i, k := range ks {
		bs[i] = k.b
	}
	if a != nil {
		a.text, a.keyed = text, ks
	}
}

// keyedBox is a box being sorted: its text is text[lo:hi].
type keyedBox struct {
	b      Box
	lo, hi int
}
