package iset

// An Arena is caller-owned memory for sets that are built, read and
// dropped over and over — a rank evaluating a transfer plan at every
// firing.  Its methods are the Set operations of the same names with the
// same results box for box; only the boxes and box lists they make come
// from the arena instead of the heap, so once the arena has grown to its
// high-water mark they allocate nothing.  A set or box made on an arena
// is valid until the next Reset.  The zero Arena is ready; never share
// one across goroutines.
type Arena struct {
	ints  []int // the bounds of the boxes made since Reset
	lists []Box // the box lists kept since Reset; the one being built is open past len
	// What did not fit since Reset and went to the heap, which Reset
	// makes room for.
	moreInts, moreLists int

	scratch []Box      // cutTail's
	text    []byte     // sortBoxes'
	keyed   []keyedBox // sortBoxes'
}

// Reset reclaims everything made on the arena, growing it by what did
// not fit since the last Reset.
func (a *Arena) Reset() {
	if a.moreInts > 0 {
		a.ints = make([]int, 0, cap(a.ints)+a.moreInts)
	}
	if a.moreLists > 0 {
		a.lists = make([]Box, 0, cap(a.lists)+a.moreLists)
	}
	a.ints, a.lists, a.moreInts, a.moreLists = a.ints[:0], a.lists[:0], 0, 0
}

// Box returns a rank-n box made on the arena, for the caller to fill
// before anything else sees it.
func (a *Arena) Box(n int) Box { return a.makeBox(n) }

// UnionBox is Set.UnionBox.
func (a *Arena) UnionBox(s Set, b Box) Set { return s.unionBox(b, a) }

// Boxes is Set.Boxes.
func (a *Arena) Boxes(s Set) []Box {
	out := append(a.list(len(s.boxes)), s.boxes...)
	sortBoxes(out, a)
	return a.keep(out)
}

// makeBox is MakeBox on a, the heap when a is nil.
func (a *Arena) makeBox(n int) Box {
	if a == nil {
		return MakeBox(n)
	}
	if cap(a.ints)-len(a.ints) < 2*n {
		a.moreInts += 2 * n
		return MakeBox(n)
	}
	i := len(a.ints)
	a.ints = a.ints[:i+2*n]
	buf := a.ints[i : i+2*n : i+2*n]
	clear(buf)
	return Box{Lo: buf[:n:n], Hi: buf[n:]}
}

func (a *Arena) clone(b Box) Box {
	out := a.makeBox(b.Rank())
	copy(out.Lo, b.Lo)
	copy(out.Hi, b.Hi)
	return out
}

func (a *Arena) withDim(b Box, dim, lo, hi int) Box {
	out := a.clone(b)
	out.Lo[dim], out.Hi[dim] = lo, hi
	return out
}

// scratchList and keepScratch lend cutTail's scratch out and take it
// back: the arena's, or nothing on the heap.
func (a *Arena) scratchList() []Box {
	if a == nil {
		return nil
	}
	return a.scratch
}

func (a *Arena) keepScratch(bs []Box) {
	if a != nil {
		a.scratch = bs
	}
}

// list opens an empty box list with room for at least n: on the heap
// when a is nil, else the rest of the arena's list block, which keep
// claims once the list is built.  One list is open at a time.
func (a *Arena) list(n int) []Box {
	if a == nil {
		if n == 0 {
			return nil
		}
		return make([]Box, 0, n)
	}
	if cap(a.lists)-len(a.lists) < n {
		a.moreLists += n
		return make([]Box, 0, n)
	}
	return a.lists[len(a.lists):len(a.lists)]
}

// keep claims bs, a list opened by list and built since, and returns it.
// A list that outgrew the block went to the heap and is its own.
func (a *Arena) keep(bs []Box) []Box {
	if a == nil || cap(bs) == 0 {
		return bs
	}
	open := a.lists[len(a.lists):cap(a.lists)]
	if cap(open) == 0 || &bs[:1][0] != &open[:1][0] {
		a.moreLists += cap(bs)
		return bs
	}
	a.lists = a.lists[:len(a.lists)+len(bs)]
	return bs
}
