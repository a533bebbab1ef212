package iset

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestArenaIsTheHeap: over random three-dimensional sets, UnionBox and
// Boxes on an Arena return the Set operation's boxes in the Set's own order —
// one decomposition, not merely the same points — and the arena reused
// across Resets keeps them apart.
func TestArenaIsTheHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	box := func() Box {
		b := MakeBox(3)
		for k := range b.Lo {
			b.Lo[k] = rng.Intn(12)
			b.Hi[k] = b.Lo[k] + rng.Intn(8) - 1
		}
		return b
	}
	same := func(op string, heap, arena Set) {
		t.Helper()
		if h, a := fmt.Sprint(heap.SharedBoxes()), fmt.Sprint(arena.SharedBoxes()); h != a {
			t.Fatalf("%s: heap %s, arena %s", op, h, a)
		}
	}
	var a Arena
	for round := 0; round < 2000; round++ {
		a.Reset()
		heap, arena := EmptySet(3), EmptySet(3)
		for range 1 + rng.Intn(4) {
			b := box()
			heap, arena = heap.UnionBox(b), a.UnionBox(arena, b)
			same("UnionBox", heap, arena)
		}
		if h, ar := fmt.Sprint(heap.Boxes()), fmt.Sprint(a.Boxes(arena)); h != ar {
			t.Fatalf("Boxes: heap %s, arena %s", h, ar)
		}
	}
}

// TestArenaDoesNotAllocate: once grown, an arena serves a plan's worth of
// operations — a halo's faces made, unioned with overlaps cut and
// coalescing, and sorted — without allocating.
func TestArenaDoesNotAllocate(t *testing.T) {
	block := NewBox([]int{0, 16, 16}, []int{31, 31, 31})
	halo := block.Grow(0, 1, 1).Grow(1, 1, 1).Grow(2, 1, 1)
	var a Arena
	op := func() {
		a.Reset()
		acc := EmptySet(3)
		for k := range 3 {
			for _, at := range [2]int{halo.Lo[k], halo.Hi[k]} {
				face := a.Box(3)
				copy(face.Lo, halo.Lo)
				copy(face.Hi, halo.Hi)
				face.Lo[k], face.Hi[k] = at, at
				acc = a.UnionBox(acc, face)
			}
		}
		a.Boxes(acc)
	}
	op()
	if n := testing.AllocsPerRun(100, op); n != 0 {
		t.Errorf("a warm arena allocates %v times per plan", n)
	}
}
