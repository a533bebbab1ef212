package iset

import "fmt"

// DimMap describes how one output dimension of an affine tuple map is
// produced.  Each output dimension is either a constant or a unit-scale
// affine function of exactly one input dimension:
//
//	out[k] = Scale*in[Src] + Offset   (Scale ∈ {+1, -1})
//	out[k] = Offset                   (Src == -1)
//
// Restricting Scale to ±1 keeps images and preimages of boxes exactly
// boxes (no internal strides), which matches the subscript forms the dhpf
// front end accepts (i, i+c, c-i, c).  This is the same restriction the
// SC'98 paper exploits for its CP-translation step: it builds 1-1 *linear*
// mappings between use and definition subscripts and skips anything else.
type DimMap struct {
	Src    int // input dimension index, or -1 for a constant dimension
	Scale  int // +1 or -1; ignored when Src == -1
	Offset int
}

// AffineMap maps rank-n integer tuples to rank-m tuples, one DimMap per
// output dimension.
type AffineMap struct {
	InRank int
	Out    []DimMap
}

// Identity returns the identity map on rank-n tuples.
func Identity(n int) AffineMap {
	m := AffineMap{InRank: n, Out: make([]DimMap, n)}
	for k := range m.Out {
		m.Out[k] = DimMap{Src: k, Scale: 1}
	}
	return m
}

// Translation returns the map p ↦ p + off.
func Translation(off []int) AffineMap {
	m := Identity(len(off))
	for k := range m.Out {
		m.Out[k].Offset = off[k]
	}
	return m
}

// OutRank returns the rank of the map's output tuples.
func (m AffineMap) OutRank() int { return len(m.Out) }

func (m AffineMap) validate() {
	for k, d := range m.Out {
		if d.Src >= m.InRank {
			panic(fmt.Sprintf("iset: map out[%d] reads input dim %d of rank-%d map", k, d.Src, m.InRank))
		}
		if d.Src >= 0 && d.Scale != 1 && d.Scale != -1 {
			panic(fmt.Sprintf("iset: map out[%d] has non-unit scale %d", k, d.Scale))
		}
	}
}

// Apply maps a single tuple.
func (m AffineMap) Apply(p []int) []int {
	m.validate()
	if len(p) != m.InRank {
		panic("iset: Apply rank mismatch")
	}
	out := make([]int, len(m.Out))
	for k, d := range m.Out {
		if d.Src < 0 {
			out[k] = d.Offset
		} else {
			out[k] = d.Scale*p[d.Src] + d.Offset
		}
	}
	return out
}

// Invertible reports whether the map is a bijection onto its image that
// can be inverted dimension-by-dimension: every input dimension must feed
// exactly one output dimension.
func (m AffineMap) Invertible() bool {
	m.validate()
	seen := make([]int, m.InRank)
	for _, d := range m.Out {
		if d.Src >= 0 {
			seen[d.Src]++
		}
	}
	for _, c := range seen {
		if c != 1 {
			return false
		}
	}
	return true
}

// Inverse returns the inverse map.  Constant output dimensions are dropped
// (they carry no input information), so the inverse maps rank-OutRank
// tuples back to rank-InRank tuples only when the map has no constant
// dimensions; otherwise Inverse panics — callers should use PreimageBox
// for general preimages.
func (m AffineMap) Inverse() AffineMap {
	if !m.Invertible() {
		panic("iset: Inverse of non-invertible map")
	}
	inv := AffineMap{InRank: m.OutRank(), Out: make([]DimMap, m.InRank)}
	assigned := make([]bool, m.InRank)
	for k, d := range m.Out {
		if d.Src < 0 {
			continue
		}
		// out[k] = s*in[src] + c  =>  in[src] = s*out[k] - s*c
		inv.Out[d.Src] = DimMap{Src: k, Scale: d.Scale, Offset: -d.Scale * d.Offset}
		assigned[d.Src] = true
	}
	for src, ok := range assigned {
		if !ok {
			panic(fmt.Sprintf("iset: input dim %d unconstrained in Inverse", src))
		}
	}
	return inv
}

// ImageBox returns the image of a box under the map.  The result is exact
// when no input dimension feeds more than one output dimension (the 1-1
// subscript mappings of CP translation always satisfy this); when an input
// feeds several outputs the result is a sound over-approximation, since a
// box cannot express the correlation between the output dimensions.
func (m AffineMap) ImageBox(b Box) Box {
	m.validate()
	if b.Rank() != m.InRank {
		panic("iset: ImageBox rank mismatch")
	}
	out := MakeBox(len(m.Out))
	if b.Empty() {
		// Preserve emptiness with an inverted interval.
		for k := range m.Out {
			out.Lo[k], out.Hi[k] = 1, 0
		}
		return out
	}
	for k, d := range m.Out {
		switch {
		case d.Src < 0:
			out.Lo[k], out.Hi[k] = d.Offset, d.Offset
		case d.Scale == 1:
			out.Lo[k] = b.Lo[d.Src] + d.Offset
			out.Hi[k] = b.Hi[d.Src] + d.Offset
		default: // Scale == -1
			out.Lo[k] = -b.Hi[d.Src] + d.Offset
			out.Hi[k] = -b.Lo[d.Src] + d.Offset
		}
	}
	return out
}

// Image returns the exact image of a set under the map.
func (m AffineMap) Image(s Set) Set {
	out := EmptySet(m.OutRank())
	for _, b := range s.boxes {
		out = out.UnionBox(m.ImageBox(b))
	}
	return out
}

// PreimageBox returns the exact preimage {p : m(p) ∈ b} of a box,
// intersected with the universe box u over input tuples.  Input dimensions
// that no output reads are unconstrained, hence the need for u.
func (m AffineMap) PreimageBox(b Box, u Box) Box {
	m.validate()
	if b.Rank() != m.OutRank() || u.Rank() != m.InRank {
		panic("iset: PreimageBox rank mismatch")
	}
	out := u.clone()
	for k, d := range m.Out {
		lo, hi := b.Lo[k], b.Hi[k]
		switch {
		case d.Src < 0:
			if d.Offset < lo || d.Offset > hi {
				// Constant dimension misses the box: empty preimage.
				for j := range out.Lo {
					out.Lo[j], out.Hi[j] = 1, 0
				}
				return out
			}
		case d.Scale == 1:
			out.Lo[d.Src] = max(out.Lo[d.Src], lo-d.Offset)
			out.Hi[d.Src] = min(out.Hi[d.Src], hi-d.Offset)
		default: // Scale == -1: lo ≤ -in+c ≤ hi  =>  c-hi ≤ in ≤ c-lo
			out.Lo[d.Src] = max(out.Lo[d.Src], d.Offset-hi)
			out.Hi[d.Src] = min(out.Hi[d.Src], d.Offset-lo)
		}
	}
	return out
}

// Preimage returns the exact preimage of a set, within universe u.
func (m AffineMap) Preimage(s Set, u Box) Set {
	out := EmptySet(m.InRank)
	for _, b := range s.boxes {
		out = out.UnionBox(m.PreimageBox(b, u))
	}
	return out
}

// Compose returns the map p ↦ m(g(p)).
func (m AffineMap) Compose(g AffineMap) AffineMap {
	m.validate()
	g.validate()
	if g.OutRank() != m.InRank {
		panic("iset: Compose rank mismatch")
	}
	out := AffineMap{InRank: g.InRank, Out: make([]DimMap, m.OutRank())}
	for k, d := range m.Out {
		if d.Src < 0 {
			out.Out[k] = d
			continue
		}
		inner := g.Out[d.Src]
		if inner.Src < 0 {
			out.Out[k] = DimMap{Src: -1, Offset: d.Scale*inner.Offset + d.Offset}
		} else {
			out.Out[k] = DimMap{
				Src:    inner.Src,
				Scale:  d.Scale * inner.Scale,
				Offset: d.Scale*inner.Offset + d.Offset,
			}
		}
	}
	return out
}

// String renders the map, e.g. "(i0,i1) -> (i0+1, 5, -i1)".
func (m AffineMap) String() string {
	in := make([]string, m.InRank)
	for k := range in {
		in[k] = fmt.Sprintf("i%d", k)
	}
	out := make([]string, len(m.Out))
	for k, d := range m.Out {
		switch {
		case d.Src < 0:
			out[k] = fmt.Sprintf("%d", d.Offset)
		case d.Scale == 1 && d.Offset == 0:
			out[k] = fmt.Sprintf("i%d", d.Src)
		case d.Scale == 1:
			out[k] = fmt.Sprintf("i%d%+d", d.Src, d.Offset)
		case d.Offset == 0:
			out[k] = fmt.Sprintf("-i%d", d.Src)
		default:
			out[k] = fmt.Sprintf("-i%d%+d", d.Src, d.Offset)
		}
	}
	return fmt.Sprintf("(%s) -> (%s)", join(in), join(out))
}

func join(xs []string) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += ","
		}
		s += x
	}
	return s
}
