package tune

import (
	"context"
	"testing"
)

// BenchmarkTuneScreenVsFull contrasts the cost of the two evaluation
// tiers on the same candidate: the screen (compile + dry run) versus a
// full compile + execute + verify pass.
func BenchmarkTuneScreenVsFull(b *testing.B) {
	s, err := specSP(4, 12, 1).withDefaults()
	if err != nil {
		b.Fatal(err)
	}
	c := Candidate{Scheme: SchemeBlock, P1: 2, P2: 2, Grain: 8}

	b.Run("screen", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tu := New() // cold caches, as below
			if _, err := tu.screen(context.Background(), &s, c); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tu := New() // cold caches: measure the real evaluation
			if _, err := tu.evalOnce(context.Background(), &s, c, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}
