package iset

import "testing"

// TestAllocationPins fixes what the set layer may allocate: the
// read-only predicates nothing, a box one array, and the single-box set
// operations (what an iteration or data set of a BLOCK layout almost
// always is) a small constant.  A regression here is a regression of
// every pass, the verifier, the planner and the emitter at once.
func TestAllocationPins(t *testing.T) {
	a := NewBox([]int{0, 0, 0}, []int{63, 63, 63})
	in := NewBox([]int{1, 1, 1}, []int{62, 62, 62})
	far := NewBox([]int{100, 0, 0}, []int{120, 63, 63})
	lap := NewBox([]int{32, 32, 32}, []int{95, 95, 95})
	off := []int{1, 0, -1}
	sa, sin, slap := FromBox(a), FromBox(in), FromBox(lap)
	shell := sa.Subtract(sin)
	var sinkB bool
	var sinkBox Box
	var sinkBoxes []Box
	var sinkSet Set
	pins := []struct {
		name string
		max  float64
		op   func()
	}{
		{"Box.Empty", 0, func() { sinkB = a.Empty() }},
		{"Box.Eq", 0, func() { sinkB = a.Eq(in) }},
		{"Box.Intersects", 0, func() { sinkB = a.Intersects(lap) }},
		{"Box.ContainsBox", 0, func() { sinkB = a.ContainsBox(in) }},
		{"MakeBox", 1, func() { sinkBox = MakeBox(3) }},
		{"NewBox", 1, func() { sinkBox = NewBox(a.Lo, a.Hi) }},
		{"Box.Intersect", 1, func() { sinkBox = a.Intersect(lap) }},
		{"Box.Translate", 1, func() { sinkBox = a.Translate(off) }},
		{"Box.Grow", 1, func() { sinkBox = a.Grow(1, 1, 1) }},
		{"Box.WithDim", 1, func() { sinkBox = a.WithDim(1, 3, 4) }},
		{"Box.Drop", 1, func() { sinkBox = a.Drop(1) }},
		{"Box.Insert", 1, func() { sinkBox = a.Insert(1, 3, 4) }},
		{"Box.Subtract disjoint", 1, func() { sinkBoxes = a.Subtract(far) }},
		{"Box.Subtract covered", 0, func() { sinkBoxes = in.Subtract(a) }},
		{"FromBox", 1, func() { sinkSet = FromBox(a) }},
		{"Set.Boxes one box", 1, func() { sinkBoxes = sa.Boxes() }},
		{"Set.SharedBoxes", 0, func() { sinkBoxes = sa.SharedBoxes() }},
		{"Set.Intersect contained", 1, func() { sinkSet = sa.Intersect(sin) }},
		{"Set.Intersect overlapping", 2, func() { sinkSet = sa.Intersect(slap) }},
		{"Set.Intersect disjoint", 0, func() { sinkSet = sa.IntersectBox(far) }},
		{"Set.IntersectBox contained", 1, func() { sinkSet = sa.IntersectBox(in) }},
		{"Set.IntersectBox overlapping", 2, func() { sinkSet = sa.IntersectBox(lap) }},
		{"Set.SubtractBox disjoint", 1, func() { sinkSet = sa.SubtractBox(far) }},
		{"Set.SubtractBox covered", 0, func() { sinkSet = sin.SubtractBox(a) }},
		{"Set.Subtract interior", 12, func() { sinkSet = sa.Subtract(sin) }},
		{"Set.UnionBox covered", 0, func() { sinkSet = sa.UnionBox(in) }},
		{"Set.UnionBox disjoint", 1, func() { sinkSet = sa.UnionBox(far) }},
		{"Set.SubsetOf one box", 0, func() { sinkB = sin.SubsetOf(sa) }},
		{"Set.Contains shell", 0, func() { sinkB = shell.Contains(off) }},
	}
	for _, p := range pins {
		if got := testing.AllocsPerRun(100, p.op); got > p.max {
			t.Errorf("%s: %.0f allocations per call, want at most %.0f", p.name, got, p.max)
		}
	}
	_, _, _, _ = sinkB, sinkBox, sinkBoxes, sinkSet
}
