package nas

import (
	"fmt"

	"dhpf/internal/ir"
	"dhpf/internal/mpsim"
	"dhpf/internal/parser"
	"dhpf/internal/spmd"
)

// handState is the per-rank storage of the hand-coded implementations:
// full-size arrays with only the locally-owned (plus halo) portions kept
// valid — the standard trick that keeps explicitly-parallel solver code
// readable while the messages remain exactly the boundary regions.
type handState struct {
	n, comp int
	u, rho  []float64 // n³
	spd     []float64 // n³ (SP only; nil for BT)
	r       []float64 // comp·n³
}

func newHandState(n, comp int, sp bool) *handState {
	st := &handState{n: n, comp: comp}
	st.u = make([]float64, n*n*n)
	st.rho = make([]float64, n*n*n)
	st.r = make([]float64, comp*n*n*n)
	if sp {
		st.spd = make([]float64, n*n*n)
	}
	return st
}

func (st *handState) idx(i, j, k int) int { return (i*st.n+j)*st.n + k }
func (st *handState) ridx(m, i, j, k int) int {
	return ((m*st.n+i)*st.n+j)*st.n + k
}

// point maps a (dim, pivot, a, b) sweep coordinate to (i,j,k): the sweep
// dimension takes the pivot value, the remaining two dimensions (in
// ascending order) take a and b.
func point(dim, p, a, b int) (int, int, int) {
	switch dim {
	case 0:
		return p, a, b
	case 1:
		return a, p, b
	default:
		return a, b, p
	}
}

// handRank is one rank of a hand-coded driver.  On a clock run st is
// nil: every phase charges the point count of its boxes and ranges —
// the one count both kinds of run use — and every message its exact
// length, but no array is allocated or touched.
type handRank struct {
	rk      *mpsim.Rank
	st      *handState // nil on a clock run
	n, comp int
	bt      bool
	systems []SweepSystem
	w       FlopWeights
	tag     int
}

func (h *handRank) nextTag() int {
	h.tag++
	return h.tag
}

// send ships a message of elems values to peer: payload on a data run;
// on a clock run a message that carries nothing, charged and counted as
// Send charges and counts elems values (analysis.DryRun's messages).
func (h *handRank) send(peer, tag, elems int, payload []float64) {
	if h.st == nil {
		h.rk.CheckLimits()
		h.rk.Post(peer, tag, mpsim.Message{At: h.rk.PaySend(peer, tag, 8*elems)})
		return
	}
	if len(payload) != elems {
		panic(fmt.Sprintf("nas: a message of %d values counted as %d", len(payload), elems))
	}
	h.rk.Send(peer, tag, payload)
}

// runHand runs body on every rank of a procs-rank machine under cfg's
// costs, each rank with a fresh handState when data is set, and returns
// the states (nil without data) and the machine's result.
func runHand(impl, bench string, n, procs int, data bool, cfg mpsim.Config, body func(h *handRank)) ([]*handState, *mpsim.Result, error) {
	bt, comp, err := fmtBench(bench)
	if err != nil {
		return nil, nil, err
	}
	var w FlopWeights
	if bt {
		w = weightsFrom(BTSource(8, 1, 1, 1), true)
	} else {
		w = weightsFrom(SPSource(8, 1, 1, 1), false)
	}
	var states []*handState
	if data {
		states = make([]*handState, procs)
	}
	cfg.Procs = procs
	res, err := mpsim.NewMachine(cfg, mpsim.MessageCost(cfg)).Run(func(rk *mpsim.Rank) {
		h := &handRank{rk: rk, n: n, comp: comp, bt: bt, systems: SweepSystems(bench), w: w}
		if data {
			h.st = newHandState(n, comp, !bt)
			states[rk.ID] = h.st
		}
		body(h)
	})
	// A rank's own panic is a driver bug, named after the driver; a
	// machine abort (the time limit, a deadlock) keeps its typed error.
	if _, ok := err.(*mpsim.RankPanic); ok {
		return nil, nil, fmt.Errorf("nas: %s %w", impl, err)
	}
	if err != nil {
		return nil, nil, err
	}
	return states, res, nil
}

// span is the length of the range [lo, hi], 0 when it is empty.
func span(lo, hi int) int { return max(0, hi-lo+1) }

// FlopWeights are the per-point flop costs of each solver phase,
// extracted from the mini-HPF sources so hand-coded runs charge exactly
// what the compiled runs charge per point.
type FlopWeights struct {
	Init    float64 // per point, all init statements
	Rho     float64
	Stencil float64 // per point (per component for BT)
	Cv, Spd float64 // SP line-temp phase
	Fwd     float64 // one forward-elimination pivot (both statements)
	Bwd     float64
	Add     float64
	Jac     float64 // BT block-Jacobian statement, per (point, m, mm)
}

func weightsFrom(src string, bt bool) FlopWeights {
	prog := parser.MustParse(src)
	var fl []float64
	for _, proc := range prog.Procs {
		ir.Walk(proc.Body, func(s ir.Stmt, _ []*ir.Loop) bool {
			if a, ok := s.(*ir.Assign); ok {
				fl = append(fl, spmd.StaticFlops(a))
			}
			return true
		})
	}
	w := FlopWeights{}
	if bt {
		// Procedure order: solve_cell (fwd1, fwd2, fwdmix, bwd, bwdmix)
		// then main (u, rho, r inits; rho; stencil; jac x/y/z; y fwd1/
		// fwd2/fwdmix/bwd/bwdmix; z ditto; add).  The mix statements
		// execute NCOMP times per (pivot, point, component) — the 5×5
		// block coupling.
		w.Fwd = fl[0] + fl[1] + float64(NCOMP)*fl[2]
		w.Bwd = fl[3] + float64(NCOMP)*fl[4]
		w.Init = fl[5] + fl[6] + fl[7]
		w.Rho = fl[8]
		w.Stencil = fl[9]
		w.Jac = fl[10]
		w.Add = fl[23]
		return w
	}
	// SP main order: u, rho, spd, rhs inits; rho; stencil; cv; spd; then
	// per direction: sys1 fwd1, fwd2, sys2 fwd1, fwd2, sys1 bwd, sys2
	// bwd (x block indices 8..13, y 14..19, z 20..25); add at 26.  The
	// per-component forward/backward weights average the two systems,
	// weighted by their component counts.
	w.Init = fl[0] + fl[1] + fl[2] + float64(NCOMP)*fl[3]
	w.Rho = fl[4]
	w.Stencil = fl[5]
	w.Cv = fl[6]
	w.Spd = fl[7]
	w.Fwd = ((fl[8]+fl[9])*3 + (fl[10]+fl[11])*2) / 5
	w.Bwd = (fl[12]*3 + fl[13]*2) / 5
	w.Add = fl[26]
	return w
}

// --- shared solver kernels (must match the mini-HPF formulas exactly) --------

// SweepSystem describes one of the separate line systems solved per
// direction: NAS SP factorizes two scalar systems (components 1-3 with
// the spd term, components 4-5 — the ±c characteristics); BT solves one
// coupled 5-component block system.
type SweepSystem struct {
	Mlo, Mhi int  // 0-based inclusive component range
	SpdTerm  bool // factor includes CoefSPD·spd
	Fac2     bool // factor uses CoefFac2 (the ±c systems)
	Mix      bool // BT block coupling
}

// Comps returns the number of components the system carries.
func (sys SweepSystem) Comps() int { return sys.Mhi - sys.Mlo + 1 }

// SweepSystems returns the per-direction systems of a benchmark.
func SweepSystems(bench string) []SweepSystem {
	if bench == "bt" {
		return []SweepSystem{{Mlo: 0, Mhi: NCOMP - 1, Mix: true}}
	}
	return []SweepSystem{
		{Mlo: 0, Mhi: 2, SpdTerm: true},
		{Mlo: 3, Mhi: 4, Fac2: true},
	}
}

// fac returns the forward-elimination factor of a system at a pivot.
func (st *handState) fac(sys SweepSystem, i, j, k int) float64 {
	if sys.Fac2 {
		return CoefFac2 / st.u[st.idx(i, j, k)]
	}
	f := CoefFac / st.u[st.idx(i, j, k)]
	if sys.SpdTerm {
		f += CoefSPD * st.spd[st.idx(i, j, k)]
	}
	return f
}

// initPoint initializes one grid point (all arrays).
func (st *handState) initPoint(i, j, k int) {
	st.u[st.idx(i, j, k)] = 1.0 + 0.001*float64(i) + 0.002*float64(j) + 0.003*float64(k)
	st.rho[st.idx(i, j, k)] = 0
	for m := 0; m < st.comp; m++ {
		st.r[st.ridx(m, i, j, k)] = 0
	}
	if st.spd != nil {
		st.spd[st.idx(i, j, k)] = 0
	}
}

// rhoPoint computes the reciprocal at one point.
func (st *handState) rhoPoint(i, j, k int) {
	st.rho[st.idx(i, j, k)] = 1.0 / st.u[st.idx(i, j, k)]
}

// stencilPoint computes the compute_rhs stencil at one interior point.
func (st *handState) stencilPoint(i, j, k int, bt bool) {
	rhoS := st.rho[st.idx(i+1, j, k)] + st.rho[st.idx(i-1, j, k)] +
		st.rho[st.idx(i, j+1, k)] + st.rho[st.idx(i, j-1, k)] +
		st.rho[st.idx(i, j, k+1)] + st.rho[st.idx(i, j, k-1)] -
		6.0*st.rho[st.idx(i, j, k)]
	uS := st.u[st.idx(i+2, j, k)] + st.u[st.idx(i-2, j, k)] +
		st.u[st.idx(i, j+2, k)] + st.u[st.idx(i, j-2, k)] +
		st.u[st.idx(i, j, k+2)] + st.u[st.idx(i, j, k-2)]
	for m := 0; m < st.comp; m++ {
		st.r[st.ridx(m, i, j, k)] = CoefDT*rhoS + CoefDX*float64(m+1)*uS
	}
}

// jacPoint applies one direction's block-Jacobian (lhs setup) update at
// one interior point, with the literal statement-by-statement accumulation
// order of the source (floating-point equivalence).
func (st *handState) jacPoint(dim, i, j, k int) {
	var d float64
	switch dim {
	case 0:
		d = st.rho[st.idx(i+1, j, k)] - st.rho[st.idx(i-1, j, k)]
	case 1:
		d = st.rho[st.idx(i, j+1, k)] - st.rho[st.idx(i, j-1, k)]
	default:
		d = st.rho[st.idx(i, j, k+1)] - st.rho[st.idx(i, j, k-1)]
	}
	u := st.u[st.idx(i, j, k)]
	for m := 0; m < st.comp; m++ {
		at := st.ridx(m, i, j, k)
		for mm := 1; mm <= st.comp; mm++ {
			st.r[at] = st.r[at] + CoefJac*float64(mm)*d*u
		}
	}
}

// spdPoint computes the SP line-temporary phase at one point
// (cv(j±1) = CoefCV·u(i,j±1,k) substituted directly).
func (st *handState) spdPoint(i, j, k int) {
	st.spd[st.idx(i, j, k)] = CoefCV*st.u[st.idx(i, j-1, k)] + CoefCV*st.u[st.idx(i, j+1, k)]
}

// applyPivot applies one forward-elimination pivot of one system at p
// along dim, updating rows p+1 and p+2 but only within [writeLo,
// writeHi] (the rows this rank owns in the sweep dimension).  fac and
// pivot values may come from a received message (fp, rvals non-nil,
// indexed from the system's first component) instead of local storage.
func (st *handState) applyPivot(dim, p, a, b int, sys SweepSystem, writeLo, writeHi int, fp float64, rvals []float64) {
	i, j, k := point(dim, p, a, b)
	f, rv := fp, rvals
	if rvals == nil {
		var own [NCOMP]float64
		f, rv = st.fac(sys, i, j, k), own[:sys.Comps()]
		for m := sys.Mlo; m <= sys.Mhi; m++ {
			rv[m-sys.Mlo] = st.r[st.ridx(m, i, j, k)]
		}
	}
	if p+1 >= writeLo && p+1 <= writeHi {
		i1, j1, k1 := point(dim, p+1, a, b)
		var mix float64
		if sys.Mix {
			for _, v := range rv {
				mix += v
			}
			mix *= CoefMix
		}
		for m := sys.Mlo; m <= sys.Mhi; m++ {
			st.r[st.ridx(m, i1, j1, k1)] -= f*rv[m-sys.Mlo] + mix
		}
	}
	if p+2 >= writeLo && p+2 <= writeHi {
		i2, j2, k2 := point(dim, p+2, a, b)
		for m := sys.Mlo; m <= sys.Mhi; m++ {
			st.r[st.ridx(m, i2, j2, k2)] -= CoefFw2 * rv[m-sys.Mlo]
		}
	}
}

// backSub applies one back-substitution pivot of one system at p along
// dim (rows p+1, p+2 must already hold final values, locally or via
// halo).
func (st *handState) backSub(dim, p, a, b int, sys SweepSystem) {
	i, j, k := point(dim, p, a, b)
	i1, j1, k1 := point(dim, p+1, a, b)
	i2, j2, k2 := point(dim, p+2, a, b)
	var mix float64
	if sys.Mix {
		for mm := sys.Mlo; mm <= sys.Mhi; mm++ {
			mix += st.r[st.ridx(mm, i1, j1, k1)]
		}
		mix *= CoefMix
	}
	for m := sys.Mlo; m <= sys.Mhi; m++ {
		st.r[st.ridx(m, i, j, k)] = st.r[st.ridx(m, i, j, k)] -
			CoefBk1*st.r[st.ridx(m, i1, j1, k1)] -
			CoefBk2*st.r[st.ridx(m, i2, j2, k2)] - mix
	}
}

// addPoint folds rhs back into u at one interior point.
func (st *handState) addPoint(i, j, k int, bt bool) {
	s := 0.0
	for m := 0; m < st.comp; m++ {
		s += st.r[st.ridx(m, i, j, k)]
	}
	st.u[st.idx(i, j, k)] += CoefAdd * s
}

func fmtBench(bench string) (bt bool, comp int, err error) {
	switch bench {
	case "sp":
		// SP carries NCOMP components too — its line systems are scalar
		// (diagonalized), so the components do not couple.
		return false, NCOMP, nil
	case "bt":
		return true, NCOMP, nil
	default:
		return false, 0, fmt.Errorf("nas: unknown benchmark %q", bench)
	}
}
