// Package hpf models HPF data-layout semantics: processor arrangements,
// templates, alignments and distributions, answering the ownership
// queries every dhpf analysis is built on — "which processor owns array
// element A(i,j,k)?" and "which box of A does processor p own?" — in
// terms of the integer-set framework.
//
// It also implements the diagonal multipartitioning layout of the
// hand-written NAS SP/BT codes (Naik, IBM Systems Journal 1995; SC'98
// §3), which HPF itself cannot express — the paper's baseline.
package hpf

import (
	"fmt"
	"slices"

	"dhpf/internal/iset"
)

// Grid is a named processor arrangement with a Cartesian shape.
// Ranks are linearized row-major (last dimension fastest).
type Grid struct {
	Name  string
	Shape []int
}

// NewGrid creates a processor arrangement.
func NewGrid(name string, shape ...int) *Grid {
	for _, s := range shape {
		if s <= 0 {
			panic(fmt.Sprintf("hpf: grid %s has non-positive extent %d", name, s))
		}
	}
	g := &Grid{Name: name, Shape: make([]int, len(shape))}
	copy(g.Shape, shape)
	return g
}

// Size returns the total number of processors.
func (g *Grid) Size() int {
	n := 1
	for _, s := range g.Shape {
		n *= s
	}
	return n
}

// Coord returns the Cartesian coordinates of a linear rank.
func (g *Grid) Coord(rank int) []int {
	if rank < 0 || rank >= g.Size() {
		panic(fmt.Sprintf("hpf: rank %d out of range for grid %v", rank, g.Shape))
	}
	c := make([]int, len(g.Shape))
	for k := len(g.Shape) - 1; k >= 0; k-- {
		c[k] = rank % g.Shape[k]
		rank /= g.Shape[k]
	}
	return c
}

// Groups returns every rank's group in a hybrid layout ("ranks across a
// grid dimension × threads within a rank"): ranks whose coordinate
// agrees in dimension 0 share memory, and a transfer between groups is
// priced like a message of the outer rank level.
func (g *Grid) Groups() []int {
	groups := make([]int, g.Size())
	for r := range groups {
		groups[r] = g.Coord(r)[0]
	}
	return groups
}

// Rank returns the linear rank of Cartesian coordinates.
func (g *Grid) Rank(coord []int) int {
	if len(coord) != len(g.Shape) {
		panic("hpf: coordinate rank mismatch")
	}
	r := 0
	for k, c := range coord {
		if c < 0 || c >= g.Shape[k] {
			panic(fmt.Sprintf("hpf: coordinate %v out of grid %v", coord, g.Shape))
		}
		r = r*g.Shape[k] + c
	}
	return r
}

// DistKind is a distribution format.
type DistKind int

const (
	Star DistKind = iota // dimension not distributed (fully local everywhere)
	Block
	Cyclic
)

func (k DistKind) String() string {
	switch k {
	case Star:
		return "*"
	case Block:
		return "BLOCK"
	case Cyclic:
		return "CYCLIC"
	}
	return "?"
}

// DimLayout describes how one array dimension is laid out.
type DimLayout struct {
	Kind    DistKind
	GridDim int // grid dimension this array dim maps to; -1 when Kind==Star
	Lo, Hi  int // array index bounds of the dimension (inclusive)
	BlockSz int // block size for Kind==Block
	// TplOff is the alignment offset: array index i sits at template cell
	// i+TplOff, where template cells are 0-based and block boundaries are
	// anchored at template cell 0 (grid coordinate p owns template cells
	// [p*BlockSz : (p+1)*BlockSz-1]).  A directly-distributed array acts
	// as its own identity-aligned template, i.e. TplOff = -Lo.
	TplOff int
}

// Layout is the complete layout of one array over a grid.  Build one
// with NewBlockLayout or Bind and do not change it afterwards: the
// per-rank boxes are computed once from Dims.
type Layout struct {
	Name string
	Grid *Grid
	Dims []DimLayout

	space   iset.Box
	local   []iset.Box // LocalBox by rank; nil when a dimension is CYCLIC
	unowned []iset.Box // Unowned; nil when a dimension is CYCLIC
}

// NewBlockLayout builds the common case directly: array with the given
// inclusive per-dim bounds, where distDims[k] names the grid dimension
// dimension k is BLOCK-distributed over (-1 ⇒ not distributed), with zero
// alignment offsets and default block sizes.
func NewBlockLayout(name string, g *Grid, lo, hi []int, distDims []int) *Layout {
	if len(lo) != len(hi) || len(lo) != len(distDims) {
		panic("hpf: NewBlockLayout length mismatch")
	}
	l := &Layout{Name: name, Grid: g, Dims: make([]DimLayout, len(lo))}
	for k := range lo {
		d := DimLayout{Kind: Star, GridDim: -1, Lo: lo[k], Hi: hi[k]}
		if distDims[k] >= 0 {
			d.Kind = Block
			d.GridDim = distDims[k]
			d.BlockSz = DefaultBlockSize(hi[k]-lo[k]+1, g.Shape[distDims[k]])
			d.TplOff = -lo[k]
		}
		l.Dims[k] = d
	}
	l.setLocal()
	return l
}

// AlignedLayout is the layout of a one-dimensional array of bounds lo..hi
// whose element i sits with element i+off of dimension k of the array
// laid out by of, or nil unless that dimension is BLOCK and of's only
// distributed one.
func AlignedLayout(name string, of *Layout, k, lo, hi, off int) *Layout {
	for j, d := range of.Dims {
		if j == k && d.Kind != Block || j != k && d.Kind != Star {
			return nil
		}
	}
	d := of.Dims[k]
	d.Lo, d.Hi, d.TplOff = lo, hi, d.TplOff+off
	l := &Layout{Name: name, Grid: of.Grid, Dims: []DimLayout{d}}
	l.setLocal()
	return l
}

// DefaultBlockSize is HPF's ceil(extent/np).
func DefaultBlockSize(extent, np int) int {
	return (extent + np - 1) / np
}

// Rank returns the array's dimensionality.
func (l *Layout) Rank() int { return len(l.Dims) }

// Space returns the full index space of the array as a box, shared like
// LocalBox's.
func (l *Layout) Space() iset.Box { return l.space }

// Distributed reports whether any dimension is distributed.
func (l *Layout) Distributed() bool {
	for _, d := range l.Dims {
		if d.Kind != Star {
			return true
		}
	}
	return false
}

// LocalBox returns the box of array indices owned by the processor with
// the given linear rank.  The box is shared by every caller and by every
// set built from it: read it, never write its bounds.  For CYCLIC
// dimensions ownership is not a box; LocalBox panics — the compiler
// rejects CYCLIC earlier (the paper's codes use BLOCK only).
func (l *Layout) LocalBox(rank int) iset.Box {
	if l.local == nil {
		panic("hpf: LocalBox on CYCLIC dimension")
	}
	return l.local[rank]
}

// Unowned returns the elements of the index space no rank's LocalBox
// covers, as disjoint boxes shared like LocalBox's: none for a default
// BLOCK layout, the tail for a BLOCK(n) whose n·P falls short of the
// extent or an alignment offset that runs past the template.  Like
// LocalBox it panics for a CYCLIC dimension.
func (l *Layout) Unowned() []iset.Box {
	if l.local == nil {
		panic("hpf: Unowned on CYCLIC dimension")
	}
	return l.unowned
}

// setLocal computes the index space, every rank's box and what no box
// covers, once the dimensions are final.
func (l *Layout) setLocal() {
	l.space = iset.MakeBox(l.Rank())
	for k, d := range l.Dims {
		l.space.Lo[k], l.space.Hi[k] = d.Lo, d.Hi
	}
	for _, d := range l.Dims {
		if d.Kind == Cyclic {
			return
		}
	}
	l.local = make([]iset.Box, l.Grid.Size())
	for rank := range l.local {
		l.local[rank] = l.localBox(rank)
	}
	// The boxes tile one box: per dimension, the BLOCKs of consecutive
	// grid coordinates abut, so their union runs from the first rank's
	// low corner to the last rank's high corner.
	first, last := l.local[0], l.local[len(l.local)-1]
	if !slices.Equal(first.Lo, l.space.Lo) || !slices.Equal(last.Hi, l.space.Hi) {
		l.unowned = l.space.Subtract(iset.NewBox(first.Lo, last.Hi))
	}
}

func (l *Layout) localBox(rank int) iset.Box {
	coord := l.Grid.Coord(rank)
	box := iset.MakeBox(l.Rank())
	lo, hi := box.Lo, box.Hi
	for k, d := range l.Dims {
		switch d.Kind {
		case Star:
			lo[k], hi[k] = d.Lo, d.Hi
		case Block:
			p := coord[d.GridDim]
			// Grid coordinate p owns template cells [p*bs:(p+1)*bs-1];
			// array index i sits at template cell i+TplOff.
			start := p*d.BlockSz - d.TplOff
			end := start + d.BlockSz - 1
			lo[k] = max(d.Lo, start)
			hi[k] = min(d.Hi, end)
		}
	}
	return box
}

// OwnerOf returns the linear rank of the unique owner of the element.
func (l *Layout) OwnerOf(idx []int) int {
	if len(idx) != l.Rank() {
		panic("hpf: OwnerOf rank mismatch")
	}
	coord := make([]int, len(l.Grid.Shape))
	for k, d := range l.Dims {
		switch d.Kind {
		case Star:
			// unconstrained; leave 0
		case Block:
			t := idx[k] + d.TplOff
			p := t / d.BlockSz
			p = min(max(p, 0), l.Grid.Shape[d.GridDim]-1)
			coord[d.GridDim] = p
		case Cyclic:
			t := idx[k] - d.Lo
			coord[d.GridDim] = t % l.Grid.Shape[d.GridDim]
		}
	}
	return l.Grid.Rank(coord)
}

// OwnerRanks returns, for each rank, the part of region it owns.  The
// returned slice is indexed by linear rank; parts may be empty sets.
func (l *Layout) OwnerRanks(region iset.Set) []iset.Set {
	out := make([]iset.Set, l.Grid.Size())
	for r := range out {
		out[r] = region.IntersectBox(l.LocalBox(r))
	}
	return out
}

// GridDimOfArrayDim returns the grid dimension an array dimension is
// distributed over, or -1.
func (l *Layout) GridDimOfArrayDim(k int) int {
	if l.Dims[k].Kind == Star {
		return -1
	}
	return l.Dims[k].GridDim
}

// String summarizes the layout.
func (l *Layout) String() string {
	s := l.Name + "("
	for k, d := range l.Dims {
		if k > 0 {
			s += ","
		}
		switch d.Kind {
		case Star:
			s += "*"
		case Block:
			s += fmt.Sprintf("BLOCK(%d)@g%d", d.BlockSz, d.GridDim)
		case Cyclic:
			s += fmt.Sprintf("CYCLIC@g%d", d.GridDim)
		}
	}
	return s + fmt.Sprintf(") onto %s%v", l.Grid.Name, l.Grid.Shape)
}
