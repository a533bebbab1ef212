package spmd

// engine_pack.go is the bulk message marshalling used by Send and Recv
// (exec.go): instead of gathering and scattering one
// element per iset point through array.get/array.set, a transfer's boxes
// — resolved in canonical order when its plan was memoized
// (sched.Transfer.Boxes) — are moved with contiguous last-dimension row
// copies.  The element order is exactly iset.Set.Each's canonical order
// (sorted boxes, lexicographic within a box, last dimension fastest), so
// sender and receiver agree and payload contents stay byte-identical to
// an element-wise walk of the boxes.  An empty box moves nothing, and any
// other box must be row-copyable (hasRows).

import (
	"fmt"

	"dhpf/internal/iset"
)

// hasRows reports whether box b of arr has rows to move: false for an
// empty box (a plan's boxes never are; the local box of a rank past the
// end of a short array is).  Any other box must have arr's rank, lie
// inside it and meet a unit-stride last dimension (newArray's storage
// always does), or the rank panics naming the array and the box.
func hasRows(b iset.Box, arr *array) bool {
	if b.Empty() {
		return false
	}
	r := b.Rank()
	ok := r > 0 && len(arr.lo) == r && arr.stride[r-1] == 1
	for k := 0; ok && k < r; k++ {
		ok = b.Lo[k] >= arr.lo[k] && b.Hi[k] <= arr.hi[k]
	}
	if !ok {
		panic(fmt.Sprintf("spmd: box %v of array %s cannot be moved by rows", b, arr.name))
	}
	return true
}

// rowWalk steps through the last-dimension rows of a non-empty box in
// iset.Box.Each's order: the one box odometer under pack, unpack and pull.
// The odometer's point lives in the walker value, so a walk allocates
// nothing; only a box of rank above len(small) keeps it on the heap.
type rowWalk struct {
	b     iset.Box
	small [4]int
	big   []int // the point of a box of higher rank
	w     int   // row width
	more  bool
}

func walkRows(b iset.Box) rowWalk {
	r := b.Rank()
	rw := rowWalk{b: b, w: b.Hi[r-1] - b.Lo[r-1] + 1, more: true}
	if r > len(rw.small) {
		rw.big = make([]int, r)
	}
	copy(rw.point(), b.Lo)
	return rw
}

// point is the first point of the current row.
func (rw *rowWalk) point() []int {
	if rw.big != nil {
		return rw.big
	}
	return rw.small[:len(rw.b.Lo)]
}

func (rw *rowWalk) next() {
	b, p := rw.b, rw.point()
	for k := len(p) - 2; k >= 0; k-- {
		p[k]++
		if p[k] <= b.Hi[k] {
			return
		}
		p[k] = b.Lo[k]
	}
	rw.more = false
}

// row returns arr's storage of the current row.
func (rw *rowWalk) row(arr *array) []float64 {
	off := 0
	for k, v := range rw.point() {
		off += (v - arr.lo[k]) * arr.stride[k]
	}
	return arr.data[off : off+rw.w]
}

// packPayload appends the boxes' elements of arr to buf in order and
// returns the extended buffer.
func packPayload(buf []float64, arr *array, boxes []iset.Box) []float64 {
	for _, b := range boxes {
		if !hasRows(b, arr) {
			continue
		}
		for rw := walkRows(b); rw.more; rw.next() {
			buf = append(buf, rw.row(arr)...)
		}
	}
	return buf
}

// unpackPayload scatters data (packed by packPayload's order) into arr
// over the boxes' elements.
func unpackPayload(data []float64, arr *array, boxes []iset.Box) {
	j := 0
	for _, b := range boxes {
		if !hasRows(b, arr) {
			continue
		}
		for rw := walkRows(b); rw.more; rw.next() {
			j += copy(rw.row(arr), data[j:j+rw.w])
		}
	}
}

// pullPayload copies the boxes' elements from src into dst directly,
// array to array: the shared-memory replacement for packPayload +
// unpackPayload with no staging buffer in between.  dst and src are the
// two ranks' private copies of the same declaration, so they share
// geometry; offsets are still computed, and boxes checked, per array.
func pullPayload(dst, src *array, boxes []iset.Box) {
	for _, b := range boxes {
		if !hasRows(b, dst) || !hasRows(b, src) {
			continue
		}
		for rw := walkRows(b); rw.more; rw.next() {
			copy(rw.row(dst), rw.row(src))
		}
	}
}

// clearBoxes zeroes the boxes' elements of arr.
func clearBoxes(arr *array, boxes []iset.Box) {
	for _, b := range boxes {
		if !hasRows(b, arr) {
			continue
		}
		for rw := walkRows(b); rw.more; rw.next() {
			clear(rw.row(arr))
		}
	}
}
