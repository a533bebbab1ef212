package spmd

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"dhpf/internal/iset"
)

// TestPackMovesRows: an empty box moves nothing, and a box that cannot be
// moved by rows panics naming the array and the box.
func TestPackMovesRows(t *testing.T) {
	arr := &array{name: "a", lo: []int{1, 1}, hi: []int{2, 3}, stride: []int{3, 1}, data: []float64{1, 2, 3, 4, 5, 6}}
	empty, row := iset.Box{Lo: []int{3, 1}, Hi: []int{2, 3}}, iset.Box{Lo: []int{2, 2}, Hi: []int{2, 3}}
	if got := packPayload(nil, arr, []iset.Box{empty, row}); !slices.Equal(got, []float64{5, 6}) {
		t.Fatalf("packed %v", got)
	}
	over := iset.Box{Lo: []int{2, 3}, Hi: []int{2, 4}}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "array a") || !strings.Contains(msg, fmt.Sprint(over)) {
			t.Errorf("panic %q", msg)
		}
	}()
	packPayload(nil, arr, []iset.Box{over})
}
