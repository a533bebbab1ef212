package spmd

import (
	"math"
	"testing"

	"dhpf/internal/iset"
	"dhpf/internal/sched"
)

// proofCase is one root loop do i = 1, 10 around a(i+1) = …, its array
// a(1:10), the statement's guard the one box lo..hi, and the rank scratch
// one precheck of the loop needs: the box proof without a program around
// it.
func proofCase(lo, hi int) (*rankExec, *KernelUnit, *KAssign, *frame) {
	sub := KSub{HasVar: true, Coef: 1, VarLocal: true, Off: KAff{Const: 1}}
	refs := []KRefCheck{{Subs: []KSub{sub}}}
	st := &KAssign{NestSlots: []int{0}, Levels: []int{0}, BoundsIdx: 2, KDims: 1, MaxBoxes: 1,
		Subs: []KSub{sub}, Refs: refs, boxRefs: refs} // the root is outermost: level 0 is box dimension 0
	root := &KLoop{Var: "i", Step: 1, Lo: KAff{Const: 1}, Hi: KAff{Const: 10}, ClampIdx: -1, Body: []KStmt{st}}
	u := &KernelUnit{Root: root, NumLevels: 1, NumBounds: 4, Arrays: []KArray{{Lo: []int{1}, Hi: []int{10}, Stride: []int{1}}}}
	rx := &rankExec{Walker: &sched.Walker{}, env: engineEnv{ints: make([]int, 1)}, kreach: make([]int, 2), kbox: make([]kiv, 1)}
	f := &frame{guards: []stmtGuard{{boxes: []iset.Box{{Lo: []int{lo}, Hi: []int{hi}}}}},
		lvls: []levelAct{{lo: math.MinInt, hi: math.MaxInt}}, proofs: make([]uint8, 1)}
	return rx, u, st, f
}

// TestBoxProof: a guard box is packed only when the statement's accesses
// are proven in bounds over the whole box; otherwise the invocation
// bails, whatever part of the box its window reaches.
func TestBoxProof(t *testing.T) {
	for _, c := range []struct {
		name   string
		lo, hi int            // the guard box
		bi     int            // the box's index in its guard when past the proof bits; 0: the precheck packs it
		strip  *sched.Strip   // the invocation's window on i, nil: none
		edit   func(*KAssign) // a change to the statement
		bail   KernelBail     // the bail, if bails
		bails  bool
		kb     []int // the packed bounds: root window, then box
		proven uint8 // the proof bits after the precheck
	}{
		{name: "box proven", lo: 1, hi: 9, kb: []int{1, 9, 1, 9}, proven: 1},
		{name: "box proven, window inside", lo: 1, hi: 9, strip: &sched.Strip{Var: "i", Lo: 3, Hi: 5}, kb: []int{3, 5, 1, 9}, proven: 1},
		// a(i+1) over the box reads a(11), though this invocation runs
		// i = 1…5 only.
		{name: "box overhangs, invocation inside", lo: 1, hi: 10, strip: &sched.Strip{Var: "i", Lo: 1, Hi: 5}, bails: true, bail: BailBoundsProof},
		{name: "both overhang", lo: 1, hi: 10, strip: &sched.Strip{Var: "i", Lo: 5, Hi: 10}, bails: true, bail: BailBoundsProof},
		{name: "saturated", lo: 1, hi: 9, edit: func(st *KAssign) { st.boxRefs[0].Subs[0].Off.Const = math.MaxInt }, bails: true, bail: BailSaturated},
		{name: "no box refs", lo: 1, hi: 9, edit: func(st *KAssign) { st.boxRefs = nil }, bails: true, bail: BailBoundsProof},
		// A box past the proof bits is proven at its use and sets no bit;
		// the root window is the precheck's, so it is left unpacked here.
		{name: "past the bitset", bi: 8, lo: 1, hi: 10, bails: true, bail: BailBoundsProof},
		{name: "past the bitset, in bounds", bi: 11, lo: 1, hi: 9, kb: []int{0, 0, 1, 9}},
	} {
		t.Run(c.name, func(t *testing.T) {
			rx, u, st, f := proofCase(c.lo, c.hi)
			if c.edit != nil {
				c.edit(st)
			}
			rx.Strip = c.strip
			kb := make([]int, u.NumBounds)
			var ok bool
			if c.bi == 0 {
				ok = rx.prepKLoop(u, u.Root, f, kb)
			} else {
				_, ok = rx.packGuardBox(u, st, f, kb, 0, c.bi, f.guards[0].boxes[0])
			}
			if ok == c.bails {
				t.Fatalf("packed = %v", ok)
			}
			var want [numKernelBails]int64
			if c.bails {
				want[c.bail] = 1
			} else if kb[0] != c.kb[0] || kb[1] != c.kb[1] || kb[2] != c.kb[2] || kb[3] != c.kb[3] {
				t.Errorf("packed %v, want %v", kb, c.kb)
			}
			if rx.kstats.Bails != want {
				t.Errorf("bails %v, want %v", rx.kstats.Bails, want)
			}
			if f.proofs[0] != c.proven {
				t.Errorf("proof bits %b, want %b", f.proofs[0], c.proven)
			}
		})
	}
}

// TestBoxProofIsTriedOnce: a box proven at its first use in the
// activation stays proven for the later ones; a box whose proof failed,
// or one past the proof bits, is proven again at each use.
func TestBoxProofIsTriedOnce(t *testing.T) {
	rx, u, st, f := proofCase(1, 9)
	box := f.guards[0].boxes[0]
	use := func(bi int) bool {
		_, ok := rx.packGuardBox(u, st, f, make([]int, 4), 0, bi, box)
		return ok
	}
	if !use(2) || f.proofs[0] != 4 {
		t.Fatalf("first use: bits %b, bails %v", f.proofs[0], rx.kstats.Bails)
	}
	u.Arrays[0].Hi[0] = 5 // a proof tried again would fail now
	if !use(2) {
		t.Fatalf("second use bailed: %v", rx.kstats.Bails)
	}
	if use(3) || use(8) || f.proofs[0] != 4 {
		t.Fatalf("unproven boxes packed: bits %b", f.proofs[0])
	}
	u.Arrays[0].Hi[0] = 10
	if !use(3) || !use(8) || f.proofs[0] != 4|8 {
		t.Fatalf("boxes not proven again: bits %b, bails %v", f.proofs[0], rx.kstats.Bails)
	}
}
