package spmd

// kernel_invoke.go is the runtime half of the native-kernel contract:
// before a registered kernel may replace iteratePlanLoop for one
// invocation, the precheck interprets the unit spec against the live
// frame — array geometry must equal the spec constants, every guard's
// boxes must fit the capacity the unit reserved, and saturating interval
// analysis over the loop value hulls must prove every array access in
// bounds, because the emitted code carries no bounds checks.  Any doubt
// bails to the closure engine, which is bit-identical by construction,
// so a bail is a performance event, never a correctness one — and a
// counted one (KernelStats), so it cannot be a silent one.

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"

	"dhpf/internal/iset"
)

// KernelBail names why a precheck sent one invocation back to the
// closure engine.
type KernelBail uint8

const (
	// BailGuardOverflow: a guard needs more boxes than the unit reserved.
	BailGuardOverflow KernelBail = iota
	// BailGuardRank: a guard's rank differs from the statement's nest.
	BailGuardRank
	// BailGeometry: a live array differs from the geometry the kernel inlined.
	BailGeometry
	// BailClamp: the frame carries no clamp for a clampable loop.
	BailClamp
	// BailBoundsProof: an array access could not be proven in bounds.
	BailBoundsProof
	// BailSaturated: the interval analysis overflowed and proves nothing.
	BailSaturated

	numKernelBails
)

var kernelBailNames = [numKernelBails]string{
	"guard-overflow", "guard-rank", "geometry", "clamp", "bounds-proof", "saturated",
}

func (b KernelBail) String() string { return kernelBailNames[b] }

// KernelStats is one execution's native-tier coverage, summed over
// ranks after they join.  It is telemetry only: nothing in it feeds
// results or virtual time.
type KernelStats struct {
	Units       int                   // kernel units bound to a registered kernel
	Calls       int64                 // invocations that ran natively
	Bails       [numKernelBails]int64 // invocations sent back to the closures, by KernelBail
	NativeFlops float64               // flops accumulated inside native kernels
	TotalFlops  float64               // flops of the whole execution
}

// TotalBails sums the bails over every reason.
func (k KernelStats) TotalBails() int64 {
	var n int64
	for _, b := range k.Bails {
		n += b
	}
	return n
}

// NativeFlopShare is the fraction of the execution's flops that ran in
// native kernels (0 for an execution without flops).
func (k KernelStats) NativeFlopShare() float64 {
	if k.TotalFlops == 0 {
		return 0
	}
	return k.NativeFlops / k.TotalFlops
}

// BailsByReason returns the non-zero bail counts keyed by reason name.
func (k KernelStats) BailsByReason() map[string]int64 {
	out := map[string]int64{}
	for r, n := range k.Bails {
		if n > 0 {
			out[KernelBail(r).String()] = n
		}
	}
	return out
}

// String is the one-line summary dhpfc -run -engine codegen prints.
func (k KernelStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "kernels: %d units bound, %d calls, %d bails", k.Units, k.Calls, k.TotalBails())
	sep := " ("
	for r, n := range k.Bails {
		if n > 0 {
			fmt.Fprintf(&b, "%s%s %d", sep, KernelBail(r), n)
			sep = ", "
		}
	}
	if sep != " (" {
		b.WriteByte(')')
	}
	fmt.Fprintf(&b, ", native flop share %.3f", k.NativeFlopShare())
	return b.String()
}

// bail counts one precheck failure and reports it as runKernel's false.
func (rx *rankExec) bail(r KernelBail) bool {
	rx.kstats.Bails[r]++
	return false
}

// boundKernel pairs a unit spec with its registered implementation.
type boundKernel struct {
	u  *KernelUnit
	fn KernelFunc
}

// kernelBindings maps plan loop roots to registered kernels.  Resolved
// per execution (not memoized) so kernels registered between runs —
// e.g. a plugin loaded after compile — take effect; the result is
// shared read-only by all ranks of one execution.
func (p *Program) kernelBindings() map[*pLoop]*boundKernel {
	units := p.KernelUnits()
	var out map[*pLoop]*boundKernel
	for i, u := range units {
		if fn := KernelFor(u.Fingerprint()); fn != nil {
			if out == nil {
				out = make(map[*pLoop]*boundKernel, len(units))
			}
			out[p.krootList[i]] = &boundKernel{u: u, fn: fn}
		}
	}
	return out
}

// kiv is a conservative value interval; sat marks that saturation
// occurred somewhere in its derivation, disqualifying it from proving
// anything.
type kiv struct {
	lo, hi int64
	sat    bool
}

func satAdd(a, b int64) (int64, bool) {
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		if b > 0 {
			return math.MaxInt64, true
		}
		return math.MinInt64, true
	}
	return s, false
}

func satMul(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, false
	}
	p := a * b
	if p/b != a {
		if (a > 0) == (b > 0) {
			return math.MaxInt64, true
		}
		return math.MinInt64, true
	}
	return p, false
}

// affIv evaluates an affine form to an interval: slot terms are exact
// (slots are invariant during a kernel invocation), local terms range
// over the enclosing loop's value hull.
func affIv(a KAff, ints []int, hull []kiv) kiv {
	out := kiv{lo: int64(a.Const), hi: int64(a.Const)}
	for _, t := range a.Terms {
		var lo, hi int64
		var s1, s2 bool
		if !t.Local {
			v, s := satMul(int64(t.Coef), int64(ints[t.Slot]))
			lo, hi, s1, s2 = v, v, s, s
		} else {
			h := hull[t.Level]
			out.sat = out.sat || h.sat
			lo, s1 = satMul(int64(t.Coef), h.lo)
			hi, s2 = satMul(int64(t.Coef), h.hi)
			if lo > hi {
				lo, hi = hi, lo
			}
		}
		var s3, s4 bool
		out.lo, s3 = satAdd(out.lo, lo)
		out.hi, s4 = satAdd(out.hi, hi)
		out.sat = out.sat || s1 || s2 || s3 || s4
	}
	return out
}

func subIv(s KSub, ints []int, hull []kiv) kiv {
	out := affIv(s.Off, ints, hull)
	if !s.HasVar {
		return out
	}
	var lo, hi int64
	var s1, s2 bool
	if s.VarLocal {
		h := hull[s.Level]
		out.sat = out.sat || h.sat
		lo, s1 = satMul(int64(s.Coef), h.lo)
		hi, s2 = satMul(int64(s.Coef), h.hi)
		if lo > hi {
			lo, hi = hi, lo
		}
	} else {
		v, sm := satMul(int64(s.Coef), int64(ints[s.VarSlot]))
		lo, hi, s1, s2 = v, v, sm, sm
	}
	var s3, s4 bool
	out.lo, s3 = satAdd(out.lo, lo)
	out.hi, s4 = satAdd(out.hi, hi)
	out.sat = out.sat || s1 || s2 || s3 || s4
	return out
}

// runKernel prechecks and, on success, runs a kernel in place of
// iteratePlanLoop's closure walk.  Returns false to fall back.
func (rx *rankExec) runKernel(bk *boundKernel) bool {
	u := bk.u
	f := rx.top()
	if cap(rx.ka) < len(u.Arrays) {
		rx.ka = make([][]float64, len(u.Arrays))
	}
	rx.ka = rx.ka[:len(u.Arrays)]
	for i := range u.Arrays {
		ka := &u.Arrays[i]
		if ka.ASlot >= len(f.aslots) {
			return rx.bail(BailGeometry)
		}
		arr := f.aslots[ka.ASlot]
		if arr == nil || !kernelGeomOK(arr, ka) {
			return rx.bail(BailGeometry)
		}
		rx.ka[i] = arr.data
	}
	if cap(rx.kb) < u.NumBounds {
		rx.kb = make([]int, u.NumBounds)
	}
	kb := rx.kb[:u.NumBounds]
	if cap(rx.khull) < u.NumLevels {
		rx.khull = make([]kiv, u.NumLevels)
		rx.knarrow = make([]kiv, u.NumLevels)
	}
	hull := rx.khull[:u.NumLevels]
	if !rx.prepKLoop(u, u.Root, f, kb, hull) {
		return false
	}
	before := rx.flops
	rx.flops = bk.fn(rx.env.ints, rx.env.intSet, rx.env.floats, rx.env.fset, rx.ka, kb, rx.flops)
	rx.kstats.Calls++
	rx.kstats.NativeFlops += rx.flops - before
	return true
}

// kernelStatsOf merges the joined ranks' counters into the execution's
// KernelStats and publishes the invocations to the process-wide count.
func kernelStatsOf(units int, ranks []*rankExec, rankFlops []float64) KernelStats {
	ks := KernelStats{Units: units}
	for _, rx := range ranks {
		ks.Calls += rx.kstats.Calls
		for i, n := range rx.kstats.Bails {
			ks.Bails[i] += n
		}
		ks.NativeFlops += rx.kstats.NativeFlops
	}
	for _, fl := range rankFlops {
		ks.TotalFlops += fl
	}
	kernelCalls.Add(ks.Calls)
	return ks
}

// kernelCalls counts successful kernel invocations process-wide, folded
// in once per execution after its ranks join.  The count never
// influences execution — it exists so differential tests can assert the
// native tier actually ran rather than silently falling back to the
// closures on every loop.
var kernelCalls atomic.Int64

// KernelInvocations returns the process-wide number of native kernel
// invocations so far.
func KernelInvocations() int64 { return kernelCalls.Load() }

// kernelGeomOK verifies the live array matches the spec geometry the
// emitted code inlined, including enough backing data for the full box.
func kernelGeomOK(arr *array, ka *KArray) bool {
	if len(arr.lo) != len(ka.Lo) || len(arr.hi) != len(ka.Hi) || len(arr.stride) != len(ka.Stride) {
		return false
	}
	for k := range ka.Lo {
		if arr.lo[k] != ka.Lo[k] || arr.hi[k] != ka.Hi[k] || arr.stride[k] != ka.Stride[k] {
			return false
		}
	}
	size := 0
	if len(ka.Lo) > 0 {
		w := ka.Hi[0] - ka.Lo[0] + 1
		if w < 0 {
			w = 0
		}
		size = w * ka.Stride[0]
	}
	return len(arr.data) >= size
}

// prepKLoop packs one loop level's window into bounds[] and extends the
// value-hull analysis downward, mirroring iteratePlanLoop's strip and
// clamp narrowing exactly.
func (rx *rankExec) prepKLoop(u *KernelUnit, kl *KLoop, f *frame, kb []int, hull []kiv) bool {
	wLo, wHi := math.MinInt, math.MaxInt
	if rx.Strip != nil && rx.Strip.Var == kl.Var {
		wLo, wHi = max(wLo, rx.Strip.Lo), min(wHi, rx.Strip.Hi)
	}
	if kl.ClampIdx >= 0 {
		if kl.ClampIdx >= len(f.clamps) {
			return rx.bail(BailClamp)
		}
		c := &f.clamps[kl.ClampIdx]
		wLo, wHi = max(wLo, c.lo), min(wHi, c.hi)
	}
	kb[kl.WinIdx], kb[kl.WinIdx+1] = wLo, wHi
	loI := affIv(kl.Lo, rx.env.ints, hull)
	hiI := affIv(kl.Hi, rx.env.ints, hull)
	var h kiv
	h.sat = loI.sat || hiI.sat
	if kl.Step > 0 {
		h.lo = maxI64(loI.lo, int64(wLo))
		h.hi = minI64(hiI.hi, int64(wHi))
	} else {
		h.lo = maxI64(hiI.lo, int64(wLo))
		h.hi = minI64(loI.hi, int64(wHi))
	}
	hull[kl.Level] = h
	if !h.sat && h.lo > h.hi {
		// Provably empty for every enclosing iteration: the emitted loop
		// header cannot fire, so the subtree's bounds are merely set to
		// defensively-disabled values.
		fillKernelDisabled(kl.Body, kb)
		return true
	}
	return rx.prepKStmts(u, kl.Body, f, kb, hull)
}

func (rx *rankExec) prepKStmts(u *KernelUnit, body []KStmt, f *frame, kb []int, hull []kiv) bool {
	for _, s := range body {
		switch st := s.(type) {
		case *KLoop:
			if !rx.prepKLoop(u, st, f, kb, hull) {
				return false
			}
		case *KAssign:
			if !rx.prepKAssign(u, st, f, kb, hull) {
				return false
			}
		case *KIf:
			if !rx.prepKStmts(u, st.Then, f, kb, hull) {
				return false
			}
			if !rx.prepKStmts(u, st.Els, f, kb, hull) {
				return false
			}
		}
	}
	return true
}

// prepKAssign packs one statement's guard — the boxes of its iteration
// set that contain the current outer-nest point, projected onto the
// kernel dimensions — and proves its array accesses in bounds over each
// box-narrowed hull.
func (rx *rankExec) prepKAssign(u *KernelUnit, st *KAssign, f *frame, kb []int, hull []kiv) bool {
	if st.GuardIdx >= len(f.guards) {
		return rx.bail(BailGuardRank)
	}
	g := &f.guards[st.GuardIdx]
	n, ok := 0, true
	switch g.kind {
	case guardBox:
		if len(g.lo) != len(st.NestSlots) {
			return rx.bail(BailGuardRank)
		}
		n, ok = rx.packGuardBox(u, st, kb, hull, n, g.lo, g.hi)
	case guardSet:
		if g.set.Rank() != len(st.NestSlots) {
			return rx.bail(BailGuardRank)
		}
		boxes := f.guardSetBoxes(st.GuardIdx)
		for i := 0; i < len(boxes) && ok; i++ {
			n, ok = rx.packGuardBox(u, st, kb, hull, n, boxes[i].Lo, boxes[i].Hi)
		}
	}
	if !ok {
		return false
	}
	if n == 0 {
		disableKAssign(st, kb)
	} else if st.MaxBoxes > 1 {
		kb[st.BoundsIdx] = n
	}
	return true
}

// guardSetBoxes returns the boxes of a guardSet guard, enumerated on
// first use and kept for the frame: Set.Boxes copies, and a precheck
// must not allocate per invocation.
func (f *frame) guardSetBoxes(gi int) []iset.Box {
	if f.setBoxes == nil {
		f.setBoxes = make([][]iset.Box, len(f.guards))
	}
	if f.setBoxes[gi] == nil {
		f.setBoxes[gi] = f.guards[gi].set.Boxes()
	}
	return f.setBoxes[gi]
}

// packGuardBox handles one box of a statement's guard, n boxes being
// packed already.  A box that misses the outer-nest point — fixed for
// the whole invocation, so checked once here instead of per point in
// the kernel — is dropped; a survivor is packed as box n and the
// statement's accesses are proven over the hulls narrowed to it.
// Returns the new box count, and false after a counted bail.
func (rx *rankExec) packGuardBox(u *KernelUnit, st *KAssign, kb []int, hull []kiv, n int, lo, hi []int) (int, bool) {
	for k := 0; k < u.RootDepth; k++ {
		if v := rx.env.ints[st.NestSlots[k]]; v < lo[k] || v > hi[k] {
			return n, true
		}
	}
	if n == st.MaxBoxes {
		return n, rx.bail(BailGuardOverflow)
	}
	base := st.BoundsIdx + n*2*st.KDims
	if st.MaxBoxes > 1 {
		base++ // past the box count
	}
	narrow := rx.knarrow[:u.NumLevels]
	copy(narrow, hull)
	empty := false
	for d := 0; d < st.KDims; d++ {
		l, h := lo[u.RootDepth+d], hi[u.RootDepth+d]
		kb[base+2*d] = l
		kb[base+2*d+1] = h
		lv := st.Levels[d]
		narrow[lv].lo = maxI64(narrow[lv].lo, int64(l))
		narrow[lv].hi = minI64(narrow[lv].hi, int64(h))
		if !narrow[lv].sat && narrow[lv].lo > narrow[lv].hi {
			empty = true
		}
	}
	if empty {
		return n + 1, true // no point passes this box: its accesses never happen
	}
	for i := range st.Refs {
		rc := &st.Refs[i]
		ka := &u.Arrays[rc.Arr]
		for k := range rc.Subs {
			iv := subIv(rc.Subs[k], rx.env.ints, narrow)
			if iv.sat {
				return n, rx.bail(BailSaturated)
			}
			if iv.lo < int64(ka.Lo[k]) || iv.hi > int64(ka.Hi[k]) {
				return n, rx.bail(BailBoundsProof)
			}
		}
	}
	return n + 1, true
}

// disableKAssign makes a statement's guard pass no point: a zero box
// count, or [1,0] pairs in a single-box statement's one box.
func disableKAssign(st *KAssign, kb []int) {
	if st.MaxBoxes > 1 {
		kb[st.BoundsIdx] = 0
		return
	}
	for d := 0; d < st.KDims; d++ {
		kb[st.BoundsIdx+2*d], kb[st.BoundsIdx+2*d+1] = 1, 0
	}
}

// fillKernelDisabled writes defensively-disabled windows and guard
// boxes for a subtree the hull analysis proved unreachable.
func fillKernelDisabled(body []KStmt, kb []int) {
	for _, s := range body {
		switch st := s.(type) {
		case *KLoop:
			kb[st.WinIdx], kb[st.WinIdx+1] = 0, -1
			fillKernelDisabled(st.Body, kb)
		case *KAssign:
			disableKAssign(st, kb)
		case *KIf:
			fillKernelDisabled(st.Then, kb)
			fillKernelDisabled(st.Els, kb)
		}
	}
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
