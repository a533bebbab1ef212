package sched

import (
	"math/rand"
	"testing"

	"dhpf/internal/iset"
)

// TestApartTransferIsOneBox: where a rank's and its peer's local boxes
// do not meet, Plan's part of a one-box data set d — d less the rank's
// box, within the peer's — is the one box d ∩ peer, on random boxes of
// one to four dimensions.  The sweep cuts d into slabs, none of which
// coalesce; within the peer they are a nest of slabs along the
// dimensions before the one that parts the two boxes, and each
// coalescing merges two slabs of one level.  transfer relies on it.
func TestApartTransferIsOneBox(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	box := func(r, w int) iset.Box {
		b := iset.MakeBox(r)
		for k := range r {
			b.Lo[k] = rng.Intn(8)
			b.Hi[k] = b.Lo[k] + rng.Intn(w)
		}
		return b
	}
	for tried := 0; tried < 20000; {
		r := 1 + rng.Intn(4)
		own, peer, d := box(r, 6), box(r, 6), box(r, 9)
		if own.Intersects(peer) {
			continue
		}
		tried++
		got := iset.FromBox(d).SubtractBox(own).IntersectBox(peer).Boxes()
		if want := d.Intersect(peer); want.Empty() && len(got) != 0 || !want.Empty() && (len(got) != 1 || !got[0].Eq(want)) {
			t.Fatalf("%v less %v within %v: %v, want the one box %v", d, own, peer, got, want)
		}
	}
}
