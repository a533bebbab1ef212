package spmd

// kernel_invoke.go is the runtime half of the kernel contract: before a
// unit's back end — a registered native kernel, or the in-process
// evaluator (kernel_eval.go) — may replace the walker's iteration of the
// root loop for one invocation, the precheck interprets the unit spec
// against the live frame — array geometry must equal the spec constants,
// every guard's boxes must fit the capacity the unit reserved, and
// saturating interval analysis must prove every array access in bounds
// over each packed guard box, because neither back end carries bounds
// checks.  The array geometry, each loop's clamp and the hull of the guard
// boxes' outer dimensions are found at the unit's first invocation in the
// activation (unitAct, levelAct); a box is proven whole, and once proven
// stays so for the activation; an invocation packs its strip window,
// clamps and outer-point guard test — nothing but an empty root window
// when its point misses the hull.  Any doubt bails before anything is
// written, and a bail is a decline: the walker interprets that
// invocation, the reference semantics itself, so a bail is a performance
// event, never a correctness one — and a counted one (KernelStats), so it
// cannot be a silent one.

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync/atomic"

	"dhpf/internal/iset"
)

// KernelBail names why a precheck declined one invocation to the walker.
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

// KernelStats is one execution's kernel-unit coverage, summed over ranks
// after they join.  Units, Calls and NativeFlops count registered native
// kernels only; what the in-process evaluator served is counted apart,
// so "no kernel ran natively" stays detectable.  It is telemetry only:
// nothing in it feeds results or virtual time.
type KernelStats struct {
	Units       int                   // kernel units bound to a registered kernel
	Calls       int64                 // invocations that ran natively
	Bails       [numKernelBails]int64 // invocations declined to the walker, by KernelBail
	NativeFlops float64               // flops accumulated inside native kernels
	EvalCalls   int64                 // invocations the in-process evaluator ran
	EvalFlops   float64               // flops accumulated inside the evaluator
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
func (k KernelStats) NativeFlopShare() float64 { return k.share(k.NativeFlops) }

func (k KernelStats) share(flops float64) float64 {
	if k.TotalFlops == 0 {
		return 0
	}
	return flops / k.TotalFlops
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

// String is the one-line summary dhpfc -run -engine codegen prints; the
// evaluator's part appears only when it ran something.
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
	if k.EvalCalls > 0 {
		fmt.Fprintf(&b, "; evaluator: %d calls, flop share %.3f", k.EvalCalls, k.share(k.EvalFlops))
	}
	return b.String()
}

// bail counts one precheck failure and reports it as runUnit's false.
func (rx *rankExec) bail(r KernelBail) bool {
	rx.kstats.Bails[r]++
	return false
}

// kernelScratch is the per-rank scratch one invocation of a unit needs;
// newRankExec sizes it once, to the maxima over the units.  offs, masks,
// assigns and cells are the evaluator's (kenv).
type kernelScratch struct {
	bounds, levels, dims, offs, masks, assigns, cells int
}

func (s *kernelScratch) fit(u kernelScratch) {
	s.bounds, s.levels = max(s.bounds, u.bounds), max(s.levels, u.levels)
	s.dims = max(s.dims, u.dims)
	s.offs, s.masks = max(s.offs, u.offs), max(s.masks, u.masks)
	s.assigns, s.cells = max(s.assigns, u.assigns), max(s.cells, u.cells)
}

// bindKernels resolves what the engine runs each unit on: its registered
// native kernel where the result holds one, its evaluator otherwise.
// Only the generated corpus's init writes the registry, so the native
// binding is looked up once per plan, by the first EngineCodegen
// execution, and shared by every later one.
func (ep *enginePlan) bindKernels(engine Engine) []KernelFunc {
	if engine != EngineCodegen {
		return ep.evalOnly
	}
	ep.nativeOnce.Do(func() {
		ep.native = make([]KernelFunc, len(ep.units))
		for i, u := range ep.units {
			ep.native[i] = KernelFor(u.Fingerprint())
		}
	})
	return ep.native
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
// (slots are invariant during a kernel invocation), a local term ranges
// over iv at its level.
func affIv(a KAff, ints []int, iv []kiv) kiv {
	out := kiv{lo: int64(a.Const), hi: int64(a.Const)}
	for _, t := range a.Terms {
		var lo, hi int64
		var s1, s2 bool
		if !t.Local {
			v, s := satMul(int64(t.Coef), int64(ints[t.Slot]))
			lo, hi, s1, s2 = v, v, s, s
		} else {
			h := iv[t.Level]
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

func subIv(s KSub, ints []int, iv []kiv) kiv {
	out := affIv(s.Off, ints, iv)
	if !s.HasVar {
		return out
	}
	var lo, hi int64
	var s1, s2 bool
	if s.VarLocal {
		h := iv[s.Level]
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

// runUnit is one invocation of a unit under the walker's current binding
// and strip.  The activation's first invocation binds the frame: its
// array slots, guards and clamps are rebuilt in place (buildGuards).  The
// integers the unit names are copied from the walker's slots and
// prechecked; on success its scalars are loaded from the frame, the unit
// runs — natively or on the evaluator — in place of the walker's
// iteration of the root loop, and the scalars it may have stored go
// back.  Returns false, nothing written, for the walker to interpret the
// loop instead.
func (rx *rankExec) runUnit(ui int) bool {
	u := rx.plan.units[ui]
	f, e := rx.top(), &rx.env
	if !f.bound {
		f.aslots = slices.Grow(f.aslots[:0], len(u.pp.arraySlot))[:len(u.pp.arraySlot)]
		for name, idx := range u.pp.arraySlot {
			f.aslots[idx] = f.arrays[name]
		}
		buildGuards(f, u.pp)
		f.bound = true
	}
	for _, v := range u.ints {
		e.ints[v.slot], e.intSet[v.slot] = rx.Value(v.walk)
	}
	if !f.units[u.pidx].ready {
		bindUnit(u, f)
	}
	kb := rx.kb[:u.NumBounds]
	var bails [numKernelBails]int64
	if rx.plan.recheck {
		bails = rx.kstats.Bails
	}
	ok := rx.precheck(u, f, kb)
	if rx.plan.recheck {
		rx.recheck(u, f, kb, ok, bails)
	}
	if !ok {
		return false
	}
	if kb[u.Root.WinIdx] > kb[u.Root.WinIdx+1] {
		// An empty root window runs no iteration on either back end — the
		// invocation is counted, and nothing else happens.
		if rx.native[ui] != nil {
			rx.kstats.Calls++
		} else {
			rx.kstats.EvalCalls++
		}
		return true
	}
	ka := f.kas[u.kaBase : u.kaBase+len(u.Arrays)]
	for _, v := range u.floats {
		e.floats[v.slot], e.fset[v.slot] = f.fenv[v.name]
	}
	before := rx.flops
	if fn := rx.native[ui]; fn != nil {
		rx.flops = fn(e.ints, e.intSet, e.floats, e.fset, ka, kb, rx.flops)
		rx.kstats.Calls++
		rx.kstats.NativeFlops += rx.flops - before
	} else {
		ke := &rx.kenv
		ke.arrays, ke.bounds, ke.flops, ke.shared = ka, kb, rx.flops, f.units[u.pidx].shared
		u.ev.run(ke)
		rx.flops = ke.flops
		rx.kstats.EvalCalls++
		rx.kstats.EvalFlops += rx.flops - before
	}
	for _, v := range u.stores {
		if e.fset[v.slot] {
			f.fenv[v.name] = e.floats[v.slot]
		}
	}
	return true
}

// kernelStatsOf merges the joined ranks' counters into the execution's
// KernelStats and publishes the native invocations to the process-wide
// count.
func kernelStatsOf(native []KernelFunc, ranks []*rankExec, rankFlops []float64) KernelStats {
	var ks KernelStats
	for _, fn := range native {
		if fn != nil {
			ks.Units++
		}
	}
	for _, rx := range ranks {
		ks.Calls += rx.kstats.Calls
		for i, n := range rx.kstats.Bails {
			ks.Bails[i] += n
		}
		ks.NativeFlops += rx.kstats.NativeFlops
		ks.EvalCalls += rx.kstats.EvalCalls
		ks.EvalFlops += rx.kstats.EvalFlops
	}
	for _, fl := range rankFlops {
		ks.TotalFlops += fl
	}
	kernelCalls.Add(ks.Calls)
	return ks
}

// kernelCalls counts successful native kernel invocations process-wide
// (the evaluator's are not in it), folded in once per execution after its
// ranks join.  The count never influences execution — it exists so
// differential tests can assert the native tier actually ran rather than
// silently falling back on every loop.
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

// unitAct is what a unit's precheck finds once per activation (ready:
// found): whether the live arrays have the geometry the unit inlined —
// their data then in the frame's kas, in KernelUnit.Arrays order — and
// whether two of them are one (kenv.shared); and whether an outer point
// its statements' guard boxes all miss empties the invocation with no
// bail possible (idle), the hull of their outer dimensions in the
// frame's outer, lo then hi, and whether they have any box.
type unitAct struct{ ready, geom, shared, idle, boxes bool }

// levelAct is one loop level's part of it: the frame's clamp window
// (math.MinInt, math.MaxInt: none), or that the frame carries none for a
// clampable loop (noClamp).
type levelAct struct {
	lo, hi  int
	noClamp bool
}

// bindUnit finds u's activation state in f: the geometry of its arrays,
// per loop level its clamp, and the hull of its guard boxes' outer
// dimensions — from the frame's array slots, clamps and guards.
func bindUnit(u *KernelUnit, f *frame) {
	ua, ka := &f.units[u.pidx], f.kas[u.kaBase:u.kaBase+len(u.Arrays)]
	*ua = unitAct{ready: true, geom: true}
	for i := range u.Arrays {
		a := &u.Arrays[i]
		arr := f.aslots[a.ASlot]
		if arr == nil || !kernelGeomOK(arr, a) {
			ua.geom = false
			continue
		}
		ka[i] = arr.data
		// Two formals may be one array of the caller: a subtree hoisted past
		// a store to the one may read the other.
		for _, b := range ka[:i] {
			ua.shared = ua.shared || len(arr.data) > 0 && len(b) > 0 && &arr.data[0] == &b[0]
		}
	}
	hull := f.outer[u.outBase : u.outBase+2*u.RootDepth]
	for k := range u.RootDepth {
		hull[k], hull[u.RootDepth+k] = math.MaxInt, math.MinInt
	}
	ua.idle = true
	bindLoop(u, f, u.Root)
}

func bindLoop(u *KernelUnit, f *frame, kl *KLoop) {
	la := &f.lvls[u.lvBase+kl.Level]
	*la = levelAct{lo: math.MinInt, hi: math.MaxInt}
	if kl.ClampIdx >= len(f.clamps) {
		la.noClamp, f.units[u.pidx].idle = true, false
	} else if kl.ClampIdx >= 0 {
		la.lo, la.hi = f.clamps[kl.ClampIdx].lo, f.clamps[kl.ClampIdx].hi
	}
	bindStmts(u, f, kl.Body)
}

func bindStmts(u *KernelUnit, f *frame, body []KStmt) {
	for _, s := range body {
		switch st := s.(type) {
		case *KLoop:
			bindLoop(u, f, st)
		case *KIf:
			bindStmts(u, f, st.Then)
			bindStmts(u, f, st.Els)
		case *KAssign:
			bindGuard(u, f, st)
		}
	}
}

// bindGuard widens u's outer hull by st's guard boxes, or leaves the
// unit never idle when the guard makes the precheck bail.
func bindGuard(u *KernelUnit, f *frame, st *KAssign) {
	ua, hull, d := &f.units[u.pidx], f.outer[u.outBase:u.outBase+2*u.RootDepth], u.RootDepth
	if st.GuardIdx >= len(f.guards) || f.guards[st.GuardIdx].badRank {
		ua.idle = false
		return
	}
	for _, b := range f.guards[st.GuardIdx].boxes {
		ua.boxes = true
		for k := range d {
			hull[k], hull[d+k] = min(hull[k], b.Lo[k]), max(hull[d+k], b.Hi[k])
		}
	}
}

// precheck packs kb for one invocation of u, or bails.  An outer point
// outside every guard box of an idle unit packs an empty root window
// and nothing else: the walk would disable every statement and could
// not bail.
func (rx *rankExec) precheck(u *KernelUnit, f *frame, kb []int) bool {
	ua := &f.units[u.pidx]
	if !ua.geom {
		return rx.bail(BailGeometry)
	}
	if ua.idle {
		out, hull, d := !ua.boxes, f.outer[u.outBase:u.outBase+2*u.RootDepth], u.RootDepth
		for k := 0; k < d && !out; k++ {
			v := rx.env.ints[u.outer[k]]
			out = v < hull[k] || v > hull[d+k]
		}
		if out {
			kb[u.Root.WinIdx], kb[u.Root.WinIdx+1] = 0, -1
			return true
		}
	}
	return rx.prepKLoop(u, u.Root, f, kb)
}

// recheck repeats the precheck that packed kb, with result ok, from u's
// activation state found afresh (bindUnit), and panics the rank unless
// it packs the same bounds or bails for the same reason: the state is
// what the activation fixes.  before are the bail counts before the
// first precheck; the repeat's bail is not counted.
func (rx *rankExec) recheck(u *KernelUnit, f *frame, kb []int, ok bool, before [numKernelBails]int64) {
	rx.plan.rechecked.Add(1)
	after, want := rx.kstats.Bails, slices.Clone(kb)
	bindUnit(u, f)
	again := rx.precheck(u, f, kb)
	fresh := rx.kstats.Bails
	rx.kstats.Bails = after
	same := again == ok && (!ok || slices.Equal(kb, want))
	for r := range after {
		same = same && after[r]-before[r] == fresh[r]-after[r]
	}
	if !same {
		panic(fmt.Sprintf("spmd: unit %s/%d: the precheck from its activation state packs %v (%v), afresh %v (%v)",
			u.Proc, u.RootID, want, ok, kb, again))
	}
}

// prepKLoop packs one loop level's window into bounds[]: the frame's
// clamp (levelAct), then the walker's strip clamp, narrowed once more to
// the reach of the guard boxes packed beneath the level: on an iteration
// outside it every statement below is guarded out, and kernel units hold
// nothing else an iteration could show (conditions read no array), so
// both back ends skip it whole instead of failing guards point by point.
func (rx *rankExec) prepKLoop(u *KernelUnit, kl *KLoop, f *frame, kb []int) bool {
	la := &f.lvls[u.lvBase+kl.Level]
	if la.noClamp {
		return rx.bail(BailClamp)
	}
	wLo, wHi := la.lo, la.hi
	if rx.Strip != nil && rx.Strip.Var == kl.Var {
		wLo, wHi = max(wLo, rx.Strip.Lo), min(wHi, rx.Strip.Hi)
	}
	reach := rx.kreach[2*kl.Level : 2*kl.Level+2]
	reach[0], reach[1] = math.MaxInt, math.MinInt
	if !rx.prepKStmts(u, kl.Body, f, kb) {
		return false
	}
	kb[kl.WinIdx], kb[kl.WinIdx+1] = max(wLo, reach[0]), min(wHi, reach[1])
	return true
}

func (rx *rankExec) prepKStmts(u *KernelUnit, body []KStmt, f *frame, kb []int) bool {
	for _, s := range body {
		switch st := s.(type) {
		case *KLoop:
			if !rx.prepKLoop(u, st, f, kb) {
				return false
			}
		case *KAssign:
			if !rx.prepKAssign(u, st, f, kb) {
				return false
			}
		case *KIf:
			if !rx.prepKStmts(u, st.Then, f, kb) || !rx.prepKStmts(u, st.Els, f, kb) {
				return false
			}
		}
	}
	return true
}

// prepKAssign packs one statement's guard — the boxes of its iteration
// set that contain the current outer-nest point, projected onto the
// kernel dimensions — with its accesses proven in bounds over each.  The
// set's boxes are disjoint, so the order they are packed in decides
// nothing.
func (rx *rankExec) prepKAssign(u *KernelUnit, st *KAssign, f *frame, kb []int) bool {
	if st.GuardIdx >= len(f.guards) || f.guards[st.GuardIdx].badRank {
		return rx.bail(BailGuardRank)
	}
	n := 0
	for bi, b := range f.guards[st.GuardIdx].boxes {
		var ok bool
		if n, ok = rx.packGuardBox(u, st, f, kb, n, bi, b); !ok {
			return false
		}
	}
	if n == 0 {
		disableKAssign(st, kb)
	} else if st.MaxBoxes > 1 {
		kb[st.BoundsIdx] = n
	}
	return true
}

// packGuardBox handles box bi of a statement's guard, n boxes being
// packed already.  A box that misses the outer-nest point — fixed for
// the whole invocation, so checked once here instead of per point in
// the kernel — is dropped; a survivor is packed as box n once the
// statement's accesses are proven in bounds over it (proveBox).  Returns
// the new box count, and false after a counted bail.
func (rx *rankExec) packGuardBox(u *KernelUnit, st *KAssign, f *frame, kb []int, n, bi int, b iset.Box) (int, bool) {
	for k := 0; k < u.RootDepth; k++ {
		if v := rx.env.ints[st.NestSlots[k]]; v < b.Lo[k] || v > b.Hi[k] {
			return n, true
		}
	}
	if n == st.MaxBoxes {
		return n, rx.bail(BailGuardOverflow)
	}
	if r, ok := rx.proveBox(u, st, f, bi, b); !ok {
		return n, rx.bail(r)
	}
	base := st.BoundsIdx + n*2*st.KDims
	if st.MaxBoxes > 1 {
		base++ // past the box count
	}
	for d := 0; d < st.KDims; d++ {
		l, h := b.Lo[u.RootDepth+d], b.Hi[u.RootDepth+d]
		kb[base+2*d] = l
		kb[base+2*d+1] = h
		lv := st.Levels[d]
		rx.kreach[2*lv], rx.kreach[2*lv+1] = min(rx.kreach[2*lv], l), max(rx.kreach[2*lv+1], h)
	}
	return n + 1, true
}

// proveBox proves st's accesses in bounds over the whole of guard box bi,
// b, or returns the bail reason and false.  The proof is sound for every
// invocation the box is packed in: the kernel runs st only at points
// inside the box, the box bounds the enclosing loops' variables there too
// (or packGuardBox drops it), and every other slot a subscript reads is
// fixed for the activation (kextract.boxRefs; nil, which bails, where one
// is not).  The frame keeps a bit per box index among the first eight,
// set once the box is proven; a box past them, or one whose proof
// failed, is proven at every use — a failure bails that use anyway.
func (rx *rankExec) proveBox(u *KernelUnit, st *KAssign, f *frame, bi int, b iset.Box) (KernelBail, bool) {
	bit := uint8(1) << bi // 0 past the eighth box
	if f.proofs[st.ord]&bit != 0 {
		return 0, true
	}
	if st.boxRefs == nil {
		return BailBoundsProof, false
	}
	iv := rx.kbox[:len(b.Lo)]
	for k := range b.Lo {
		iv[k] = kiv{lo: int64(b.Lo[k]), hi: int64(b.Hi[k])}
	}
	r, ok := refsInBounds(u, st.boxRefs, rx.env.ints, iv)
	if ok {
		f.proofs[st.ord] |= bit
	}
	return r, ok
}

// refsInBounds proves every access of refs inside u's arrays, the
// variables ranging over iv; it returns the bail reason and false where
// one is not proven.
func refsInBounds(u *KernelUnit, refs []KRefCheck, ints []int, iv []kiv) (KernelBail, bool) {
	for i := range refs {
		rc := &refs[i]
		ka := &u.Arrays[rc.Arr]
		for k := range rc.Subs {
			v := subIv(rc.Subs[k], ints, iv)
			if v.sat {
				return BailSaturated, false
			}
			if v.lo < int64(ka.Lo[k]) || v.hi > int64(ka.Hi[k]) {
				return BailBoundsProof, false
			}
		}
	}
	return 0, true
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
