package iset

import "testing"

// BenchmarkSetAlgebra runs union, subtract and intersect on the three set
// shapes compiling NAS SP produces over and over: one box (a rank's block
// of a BLOCK-distributed array), three (the faces a rank reads from its
// upper neighbours) and six (the whole halo shell around the block).
func BenchmarkSetAlgebra(b *testing.B) {
	block := NewBox([]int{0, 16, 16}, []int{31, 31, 31})
	halo := block.Grow(0, 1, 1).Grow(1, 1, 1).Grow(2, 1, 1)
	shapes := []struct {
		name string
		set  Set
	}{
		{"1box", FromBox(block)},
		{"3box", FromBoxes(block.WithDim(0, 32, 32), block.WithDim(1, 32, 32), block.WithDim(2, 32, 32))},
		{"6box", FromBox(halo).SubtractBox(block)},
	}
	var sink Set
	for _, sh := range shapes {
		if got := len(sh.set.Boxes()); got != int(sh.name[0]-'0') {
			b.Fatalf("%s has %d boxes", sh.name, got)
		}
		other := sh.set.Translate([]int{1, 0, -1})
		ops := []struct {
			name string
			op   func() Set
		}{
			{"union", func() Set { return sh.set.Union(other) }},
			{"subtract", func() Set { return sh.set.Subtract(other) }},
			{"intersect", func() Set { return sh.set.Intersect(other) }},
		}
		for _, op := range ops {
			b.Run(sh.name+"/"+op.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sink = op.op()
				}
			})
		}
	}
	_ = sink
}
