package spmd

import "testing"

// proofCase is one statement a(i+1) = … over i, its array a(1:10), and
// the rank scratch one packGuardBox call needs: the box proof's fallback
// without a program around it.
func proofCase(mode boxProofMode) (*rankExec, *KernelUnit, *KAssign, *frame) {
	sub := KSub{HasVar: true, Coef: 1, VarLocal: true, Off: KAff{Const: 1}}
	refs := []KRefCheck{{Subs: []KSub{sub}}}
	st := &KAssign{NestSlots: []int{0}, Levels: []int{0}, BoundsIdx: 2, KDims: 1, MaxBoxes: 1,
		Subs: []KSub{sub}, Refs: refs, boxRefs: refs} // the root is outermost: level 0 is box dimension 0
	u := &KernelUnit{NumLevels: 1, NumBounds: 4, Arrays: []KArray{{Lo: []int{1}, Hi: []int{10}, Stride: []int{1}}}}
	rx := &rankExec{plan: &enginePlan{boxProof: mode}, env: engineEnv{ints: make([]int, 1)},
		kreach: []int{0, 0}, knarrow: make([]kiv, 1), kbox: make([]kiv, 1)}
	return rx, u, st, &frame{proofs: make([]boxProof, 1)}
}

func TestBoxProofFallsBack(t *testing.T) {
	box := func(lo, hi int) ([]int, []int) { return []int{lo}, []int{hi} }
	for _, c := range []struct {
		name     string
		bi       int // the box's index in its guard
		lo, hi   int // the box
		hull     kiv // the invocation's window on i
		tried    bool
		proven   bool
		bail     KernelBail
		bails    bool
		wantPack int
	}{
		// a(i+1) over the box reads a(11): the box proof fails, but this
		// invocation runs i = 1…5 only.
		{name: "box overhangs, invocation inside", lo: 1, hi: 10, hull: kiv{lo: 1, hi: 5}, tried: true, wantPack: 1},
		// Both proofs fail: the parent's bail.
		{name: "both overhang", lo: 1, hi: 10, hull: kiv{lo: 5, hi: 10}, tried: true, bails: true, bail: BailBoundsProof},
		// The box is proven whole: a saturated window, which the
		// per-invocation proof bails on, is never looked at.
		{name: "box proven", lo: 1, hi: 9, hull: kiv{lo: 1, hi: 9, sat: true}, tried: true, proven: true, wantPack: 1},
		// The same box past the bitset takes the per-invocation proof.
		{name: "past the bitset", bi: proofBoxes, lo: 1, hi: 9, hull: kiv{lo: 1, hi: 9, sat: true}, bails: true, bail: BailSaturated},
		{name: "past the bitset, in bounds", bi: proofBoxes + 3, lo: 1, hi: 9, hull: kiv{lo: 1, hi: 9}, wantPack: 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			rx, u, st, f := proofCase(boxProofOn)
			lo, hi := box(c.lo, c.hi)
			n, ok := rx.packGuardBox(u, st, f, make([]int, 4), []kiv{c.hull}, 0, c.bi, lo, hi)
			if ok == c.bails || ok && n != c.wantPack {
				t.Fatalf("packGuardBox = %d, %v", n, ok)
			}
			var want [numKernelBails]int64
			if c.bails {
				want[c.bail] = 1
			}
			if rx.kstats.Bails != want {
				t.Errorf("bails %v, want %v", rx.kstats.Bails, want)
			}
			var p boxProof
			if c.tried {
				p.tried = 1 << c.bi
			}
			if c.proven {
				p.proven = 1 << c.bi
			}
			if f.proofs[0] != p {
				t.Errorf("proof bits %+v, want %+v", f.proofs[0], p)
			}
		})
	}
}

// TestBoxProofIsTriedOnce: a box's proof is tried at its first use in
// the activation, and its verdict stands for the later ones.
func TestBoxProofIsTriedOnce(t *testing.T) {
	rx, u, st, f := proofCase(boxProofOn)
	lo, hi := []int{1}, []int{9}
	if _, ok := rx.packGuardBox(u, st, f, make([]int, 4), []kiv{{lo: 1, hi: 9}}, 0, 2, lo, hi); !ok || f.proofs[0] != (boxProof{tried: 4, proven: 4}) {
		t.Fatalf("first use: ok %v, bits %+v", ok, f.proofs[0])
	}
	u.Arrays[0].Hi[0] = 5 // a proof tried again would fail now
	if _, ok := rx.packGuardBox(u, st, f, make([]int, 4), []kiv{{lo: 1, hi: 9, sat: true}}, 0, 2, lo, hi); !ok {
		t.Fatalf("second use bailed: %v", rx.kstats.Bails)
	}
}

// TestBoxProofCheckPanics: in the check mode a box proven whole whose
// invocation fails the per-invocation proof fails the rank.
func TestBoxProofCheckPanics(t *testing.T) {
	rx, u, st, f := proofCase(boxProofCheck)
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	rx.packGuardBox(u, st, f, make([]int, 4), []kiv{{lo: 1, hi: 9, sat: true}}, 0, 0, []int{1}, []int{9})
}
