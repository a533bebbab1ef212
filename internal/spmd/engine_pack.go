package spmd

// engine_pack.go is the bulk message marshalling used by Send and Recv
// (exec.go): instead of gathering and scattering one
// element per iset point through array.get/array.set, transfer sets are
// walked box by box and moved with contiguous last-dimension row copies.
// The element order is exactly iset.Set.Each's canonical order (sorted
// boxes, lexicographic within a box, last dimension fastest), so sender
// and receiver agree and payload contents stay byte-identical to the
// element-wise interpreter path.  Boxes that cannot be row-copied (rank
// mismatch with the array, out-of-bounds points, zero rank) fall back to
// the element-wise walk, preserving the interpreter's panics exactly.

import "dhpf/internal/iset"

// rowCopyable reports whether the box can be transferred with direct row
// copies on arr: every point in bounds and the last dimension unit-stride
// (always true for newArray storage, checked for robustness).
func rowCopyable(b iset.Box, arr *array) bool {
	r := b.Rank()
	if arr == nil || r == 0 || len(arr.lo) != r || arr.stride[r-1] != 1 {
		return false
	}
	for k := 0; k < r; k++ {
		if b.Lo[k] < arr.lo[k] || b.Hi[k] > arr.hi[k] {
			return false
		}
	}
	return true
}

// packPayload appends the set's elements of arr to buf in canonical
// order and returns the extended buffer.
func packPayload(buf []float64, arr *array, s iset.Set) []float64 {
	for _, b := range s.Boxes() {
		if !rowCopyable(b, arr) {
			b.Each(func(p []int) bool {
				buf = append(buf, arr.get(p))
				return true
			})
			continue
		}
		r := b.Rank()
		w := b.Hi[r-1] - b.Lo[r-1] + 1
		p := make([]int, r)
		copy(p, b.Lo)
		for {
			off := 0
			for k := 0; k < r; k++ {
				off += (p[k] - arr.lo[k]) * arr.stride[k]
			}
			buf = append(buf, arr.data[off:off+w]...)
			k := r - 2
			for ; k >= 0; k-- {
				p[k]++
				if p[k] <= b.Hi[k] {
					break
				}
				p[k] = b.Lo[k]
			}
			if k < 0 {
				break
			}
		}
	}
	return buf
}

// unpackPayload scatters data (packed by packPayload's order) into arr
// over the set's elements.
func unpackPayload(data []float64, arr *array, s iset.Set) {
	j := 0
	for _, b := range s.Boxes() {
		if !rowCopyable(b, arr) {
			b.Each(func(p []int) bool {
				arr.set(p, data[j])
				j++
				return true
			})
			continue
		}
		r := b.Rank()
		w := b.Hi[r-1] - b.Lo[r-1] + 1
		p := make([]int, r)
		copy(p, b.Lo)
		for {
			off := 0
			for k := 0; k < r; k++ {
				off += (p[k] - arr.lo[k]) * arr.stride[k]
			}
			copy(arr.data[off:off+w], data[j:j+w])
			j += w
			k := r - 2
			for ; k >= 0; k-- {
				p[k]++
				if p[k] <= b.Hi[k] {
					break
				}
				p[k] = b.Lo[k]
			}
			if k < 0 {
				break
			}
		}
	}
}
