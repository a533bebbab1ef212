package iset

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"
)

var updateOrder = flag.Bool("update-order", false, "rewrite testdata/canonical_order.golden (only when the canonical box order is meant to change)")

// orderCases are sets whose canonical order is decided by *string*
// comparison of the rendered boxes: bounds that cross digit counts
// ("[10:12]" sorts before "[2:3]") and sign ("[-1:0]" before "[0]"),
// ranks 1 to 4.  The report, emit, walk and clock goldens all depend on
// this order, so a numeric comparator must not replace it silently.
func orderCases() map[string]Set {
	cases := map[string]Set{
		"rank1 digits":    FromBoxes(Interval(2, 3), Interval(10, 12), Interval(100, 120), Interval(5, 5)),
		"rank1 sign":      FromBoxes(Interval(-1, 0), Interval(2, 3), Interval(-12, -10), Interval(10, 12), Interval(-3, -3)),
		"rank1 point/run": FromBoxes(Point(1), Interval(11, 19), Point(3), Interval(21, 22)),
		"rank2 digits":    FromBoxes(NewBox([]int{2, 10}, []int{3, 12}), NewBox([]int{10, 2}, []int{12, 3}), NewBox([]int{2, 2}, []int{3, 3}), NewBox([]int{10, 10}, []int{12, 12})),
		"rank2 sign":      FromBoxes(NewBox([]int{-1, -1}, []int{0, 0}), NewBox([]int{-1, 2}, []int{0, 3}), NewBox([]int{2, -10}, []int{3, -9}), NewBox([]int{10, 10}, []int{12, 12})),
		"rank3 shell":     FromBox(NewBox([]int{-2, 8, 98}, []int{11, 11, 101})).SubtractBox(NewBox([]int{0, 9, 99}, []int{9, 10, 100})),
		"rank3 sign":      FromBoxes(NewBox([]int{-1, 0, 10}, []int{0, 0, 12}), NewBox([]int{2, 0, 10}, []int{3, 0, 12}), NewBox([]int{10, -5, 2}, []int{12, 5, 3}), NewBox([]int{-10, 7, 7}, []int{-9, 7, 7})),
		"rank4 digits":    FromBox(NewBox([]int{0, 0, 0, 0}, []int{12, 12, 12, 12})).SubtractBox(NewBox([]int{2, 3, 9, 10}, []int{3, 10, 10, 11})),
		"rank4 sign":      FromBoxes(NewBox([]int{-1, 2, 10, -10}, []int{0, 3, 12, -9}), NewBox([]int{2, 2, 10, -10}, []int{3, 3, 12, -9}), NewBox([]int{10, -1, 0, 1}, []int{12, 0, 0, 1})),
	}
	// Random algebra: pins which boxes an operation produces (the
	// decomposition and merge order), not only how they are sorted.
	rng := rand.New(rand.NewSource(19))
	randBox := func(rank int) Box {
		lo, hi := make([]int, rank), make([]int, rank)
		for k := range lo {
			lo[k] = rng.Intn(24) - 12
			hi[k] = lo[k] + rng.Intn(14) - 1
		}
		return NewBox(lo, hi)
	}
	for i := 0; i < 48; i++ {
		rank := 1 + i%4
		a := FromBoxes(randBox(rank), randBox(rank), randBox(rank))
		b := FromBoxes(randBox(rank), randBox(rank))
		cases[fmt.Sprintf("random %02d union", i)] = a.Union(b)
		cases[fmt.Sprintf("random %02d minus", i)] = a.Subtract(b)
		cases[fmt.Sprintf("random %02d meet", i)] = a.Intersect(b.Union(FromBox(randBox(rank))))
		cases[fmt.Sprintf("random %02d drop", i)] = a.Subtract(b).Insert(0, -1, 10).Drop(rank)
	}
	return cases
}

func TestCanonicalOrderGolden(t *testing.T) {
	cases := orderCases()
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, name := range names {
		s := cases[name]
		fmt.Fprintf(&sb, "%s\n  string: %s\n  boxes: ", name, s)
		for i, b := range s.Boxes() {
			if i > 0 {
				sb.WriteString(" | ")
			}
			sb.WriteString(b.String())
		}
		// Each: count, first and last tuple and a hash of the whole
		// traversal — order-sensitive without a megabyte of tuples.
		n, h := 0, fnv.New64a()
		var first, last []int
		s.Each(func(p []int) bool {
			if n == 0 {
				first = append(first, p...)
			}
			n++
			last = append(last[:0], p...)
			fmt.Fprint(h, p)
			return true
		})
		fmt.Fprintf(&sb, "\n  each: %d tuples %v..%v fnv %016x\n", n, first, last, h.Sum64())
	}
	got := sb.String()
	const path = "testdata/canonical_order.golden"
	if *updateOrder {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	line := func(ls []string, i int) string {
		if i < len(ls) {
			return ls[i]
		}
		return "<end of file>"
	}
	for i := 0; i < len(gl) || i < len(wl); i++ {
		if g, w := line(gl, i), line(wl, i); g != w {
			t.Fatalf("canonical order differs from %s at line %d:\n got %s\nwant %s", path, i+1, g, w)
		}
	}
}
