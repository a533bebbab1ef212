package nas

import (
	"fmt"

	"dhpf/internal/hpf"
	"dhpf/internal/ir"
	"dhpf/internal/mpsim"
	"dhpf/internal/parser"
	"dhpf/internal/spmd"
)

// LURun is the result of the hand-coded 2-D pipelined LU run.
type LURun struct {
	Machine *mpsim.Result
	N       int
	U, V    []float64
}

// RunLU2D executes the hand-written message-passing version of the LU
// extension: a p1×p2 block decomposition over (j,k) with the NPB-LU
// communication pattern — the lower-triangular sweep receives its north
// and west boundary planes, computes its block, and forwards south and
// east; the upper-triangular sweep runs the same wavefront in reverse.
// This is the explicitly-parallel baseline for the 2-D diagonal
// wavefronts the dhpf compiler pipelines automatically.
func RunLU2D(n, steps, p1, p2 int, cfg mpsim.Config) (*LURun, error) {
	if p1 <= 0 || p2 <= 0 {
		return nil, fmt.Errorf("nas: bad LU grid %dx%d", p1, p2)
	}
	w := luWeights()
	procs := p1 * p2
	blkJ := hpf.DefaultBlockSize(n, p1)
	blkK := hpf.DefaultBlockSize(n, p2)
	jr := func(pj int) (int, int) { return pj * blkJ, min(pj*blkJ+blkJ-1, n-1) }
	kr := func(pk int) (int, int) { return pk * blkK, min(pk*blkK+blkK-1, n-1) }

	states := make([]*handState, procs)
	cfg.Procs = procs
	res, err := mpsim.NewMachine(cfg, mpsim.MessageCost(cfg)).Run(func(rk *mpsim.Rank) {
		st := newHandState(n, 1, false)
		states[rk.ID] = st
		d := &luDriver{rk: rk, st: st, w: w, p1: p1, p2: p2, jr: jr, kr: kr}
		d.run(steps)
	})
	if _, ok := err.(*mpsim.RankPanic); ok {
		return nil, fmt.Errorf("nas: lu2d %w", err)
	}
	if err != nil {
		return nil, err
	}

	out := &LURun{Machine: res, N: n}
	out.U = make([]float64, n*n*n)
	out.V = make([]float64, n*n*n)
	for rank := 0; rank < procs; rank++ {
		st := states[rank]
		jlo, jhi := jr(rank / p2)
		klo, khi := kr(rank % p2)
		for i := 0; i < n; i++ {
			for j := jlo; j <= jhi; j++ {
				for k := klo; k <= khi; k++ {
					out.U[st.idx(i, j, k)] = st.u[st.idx(i, j, k)]
					out.V[st.idx(i, j, k)] = st.r[st.ridx(0, i, j, k)]
				}
			}
		}
	}
	return out, nil
}

// luWeights extracts the LU phase flop weights from the mini-HPF source
// (main statement order: u, v, rho inits; rho; stencil; blts; buts; add).
func luWeights() FlopWeights {
	prog := parser.MustParse(LUSource(8, 1, 1, 1))
	var fl []float64
	ir.Walk(prog.Main().Body, func(s ir.Stmt, _ []*ir.Loop) bool {
		if a, ok := s.(*ir.Assign); ok {
			fl = append(fl, spmd.StaticFlops(a))
		}
		return true
	})
	return FlopWeights{
		Init:    fl[0] + fl[1] + fl[2],
		Rho:     fl[3],
		Stencil: fl[4],
		Fwd:     fl[5],
		Bwd:     fl[6],
		Add:     fl[7],
	}
}

type luDriver struct {
	rk     *mpsim.Rank
	st     *handState
	w      FlopWeights
	p1, p2 int
	jr, kr func(int) (int, int)
	tag    int
}

func (d *luDriver) coords() (int, int)  { return d.rk.ID / d.p2, d.rk.ID % d.p2 }
func (d *luDriver) rank(pj, pk int) int { return pj*d.p2 + pk }
func (d *luDriver) nextTag() int        { d.tag++; return d.tag }

// lower applies the blts update at one point (must match LUSource).
func (st *handState) luLower(i, j, k int) {
	st.r[st.ridx(0, i, j, k)] += (CoefFac/st.u[st.idx(i, j, k)])*st.r[st.ridx(0, i, j-1, k)] +
		CoefFw2*st.r[st.ridx(0, i, j, k-1)]
}

// upper applies the buts update at one point.
func (st *handState) luUpper(i, j, k int) {
	st.r[st.ridx(0, i, j, k)] += CoefBk1*st.r[st.ridx(0, i, j+1, k)] +
		CoefBk2*st.r[st.ridx(0, i, j, k+1)]
}

func (d *luDriver) run(steps int) {
	st, n := d.st, d.st.n
	pj, pk := d.coords()
	jlo, jhi := d.jr(pj)
	klo, khi := d.kr(pk)

	// Init the block plus a one-deep halo.
	for i := 0; i < n; i++ {
		for j := max(0, jlo-1); j <= min(n-1, jhi+1); j++ {
			for k := max(0, klo-1); k <= min(n-1, khi+1); k++ {
				st.initPoint(i, j, k)
			}
		}
	}
	d.rk.ComputeLabeled(d.w.Init*float64(n*(jhi-jlo+1)*(khi-klo+1)), "init")

	for s := 0; s < steps; s++ {
		d.haloU(jlo, jhi, klo, khi)
		d.rhsPhase(jlo, jhi, klo, khi)
		d.sweep(jlo, jhi, klo, khi, false)
		d.sweep(jlo, jhi, klo, khi, true)
		d.addPhase(jlo, jhi, klo, khi)
	}
}

// haloU exchanges one u plane with each of the 4 block neighbours.
func (d *luDriver) haloU(jlo, jhi, klo, khi int) {
	st, n := d.st, d.st.n
	pj, pk := d.coords()
	type dir struct {
		dj, dk       int
		sendJ, sendK [2]int // my boundary plane (j-range, k-range)
		recvJ, recvK [2]int // the halo plane I receive
	}
	dirs := []dir{
		{dj: +1, sendJ: [2]int{jhi, jhi}, sendK: [2]int{klo, khi}, recvJ: [2]int{jlo - 1, jlo - 1}, recvK: [2]int{klo, khi}},
		{dj: -1, sendJ: [2]int{jlo, jlo}, sendK: [2]int{klo, khi}, recvJ: [2]int{jhi + 1, jhi + 1}, recvK: [2]int{klo, khi}},
		{dk: +1, sendJ: [2]int{jlo, jhi}, sendK: [2]int{khi, khi}, recvJ: [2]int{jlo, jhi}, recvK: [2]int{klo - 1, klo - 1}},
		{dk: -1, sendJ: [2]int{jlo, jhi}, sendK: [2]int{klo, klo}, recvJ: [2]int{jlo, jhi}, recvK: [2]int{khi + 1, khi + 1}},
	}
	for _, dd := range dirs {
		tag := d.nextTag()
		tj, tk := pj+dd.dj, pk+dd.dk
		if tj >= 0 && tj < d.p1 && tk >= 0 && tk < d.p2 {
			var payload []float64
			for i := 0; i < n; i++ {
				for j := dd.sendJ[0]; j <= dd.sendJ[1]; j++ {
					for k := dd.sendK[0]; k <= dd.sendK[1]; k++ {
						payload = append(payload, st.u[st.idx(i, j, k)])
					}
				}
			}
			d.rk.Send(d.rank(tj, tk), tag, payload)
		}
		fj, fk := pj-dd.dj, pk-dd.dk
		if fj >= 0 && fj < d.p1 && fk >= 0 && fk < d.p2 {
			data := d.rk.Recv(d.rank(fj, fk), tag)
			at := 0
			for i := 0; i < n; i++ {
				for j := dd.recvJ[0]; j <= dd.recvJ[1]; j++ {
					for k := dd.recvK[0]; k <= dd.recvK[1]; k++ {
						st.u[st.idx(i, j, k)] = data[at]
						at++
					}
				}
			}
		}
	}
}

func (d *luDriver) rhsPhase(jlo, jhi, klo, khi int) {
	st, n := d.st, d.st.n
	var rhoPts, stPts float64
	for i := 0; i < n; i++ {
		for j := max(0, jlo-1); j <= min(n-1, jhi+1); j++ {
			for k := max(0, klo-1); k <= min(n-1, khi+1); k++ {
				st.rhoPoint(i, j, k)
				rhoPts++
			}
		}
	}
	for i := 1; i <= n-2; i++ {
		for j := max(1, jlo); j <= min(n-2, jhi); j++ {
			for k := max(1, klo); k <= min(n-2, khi); k++ {
				rhoS := st.rho[st.idx(i+1, j, k)] + st.rho[st.idx(i-1, j, k)] +
					st.rho[st.idx(i, j+1, k)] + st.rho[st.idx(i, j-1, k)] +
					st.rho[st.idx(i, j, k+1)] + st.rho[st.idx(i, j, k-1)] -
					6.0*st.rho[st.idx(i, j, k)]
				st.r[st.ridx(0, i, j, k)] = CoefDT * rhoS
				stPts++
			}
		}
	}
	d.rk.ComputeLabeled(d.w.Rho*rhoPts+d.w.Stencil*stPts, "rhs")
}

// sweep runs blts (upper=false) or buts (upper=true): the 2-D block
// wavefront — receive the inbound boundary planes, compute the block,
// forward the outbound planes.
func (d *luDriver) sweep(jlo, jhi, klo, khi int, upper bool) {
	st, n := d.st, d.st.n
	pj, pk := d.coords()
	label := "blts"
	dirJ, dirK := -1, -1 // where inbound data comes from (lower sweep: north/west)
	if upper {
		label = "buts"
		dirJ, dirK = +1, +1
	}
	cjlo, cjhi := max(1, jlo), min(n-2, jhi)
	cklo, ckhi := max(1, klo), min(n-2, khi)

	// Inbound planes.
	tagJ := d.nextTag()
	tagK := d.nextTag()
	if fj := pj + dirJ; fj >= 0 && fj < d.p1 {
		row := jlo - 1
		if upper {
			row = jhi + 1
		}
		if row >= 0 && row < n {
			data := d.rk.Recv(d.rank(fj, pk), tagJ)
			at := 0
			for i := 1; i <= n-2; i++ {
				for k := cklo; k <= ckhi; k++ {
					st.r[st.ridx(0, i, row, k)] = data[at]
					at++
				}
			}
		}
	}
	if fk := pk + dirK; fk >= 0 && fk < d.p2 {
		col := klo - 1
		if upper {
			col = khi + 1
		}
		if col >= 0 && col < n {
			data := d.rk.Recv(d.rank(pj, fk), tagK)
			at := 0
			for i := 1; i <= n-2; i++ {
				for j := cjlo; j <= cjhi; j++ {
					st.r[st.ridx(0, i, j, col)] = data[at]
					at++
				}
			}
		}
	}

	// Compute the block in sweep order.
	var pts float64
	if !upper {
		for j := cjlo; j <= cjhi; j++ {
			for k := cklo; k <= ckhi; k++ {
				for i := 1; i <= n-2; i++ {
					st.luLower(i, j, k)
					pts++
				}
			}
		}
	} else {
		for j := cjhi; j >= cjlo; j-- {
			for k := ckhi; k >= cklo; k-- {
				for i := 1; i <= n-2; i++ {
					st.luUpper(i, j, k)
					pts++
				}
			}
		}
	}
	wgt := d.w.Fwd
	if upper {
		wgt = d.w.Bwd
	}
	d.rk.ComputeLabeled(wgt*pts, label)

	// Outbound planes (my last computed row/column in sweep direction).
	if tj := pj - dirJ; tj >= 0 && tj < d.p1 {
		row := cjhi
		if upper {
			row = cjlo
		}
		var payload []float64
		for i := 1; i <= n-2; i++ {
			for k := cklo; k <= ckhi; k++ {
				payload = append(payload, st.r[st.ridx(0, i, row, k)])
			}
		}
		d.rk.Send(d.rank(tj, pk), tagJ, payload)
	}
	if tk := pk - dirK; tk >= 0 && tk < d.p2 {
		col := ckhi
		if upper {
			col = cklo
		}
		var payload []float64
		for i := 1; i <= n-2; i++ {
			for j := cjlo; j <= cjhi; j++ {
				payload = append(payload, st.r[st.ridx(0, i, j, col)])
			}
		}
		d.rk.Send(d.rank(pj, tk), tagK, payload)
	}
}

func (d *luDriver) addPhase(jlo, jhi, klo, khi int) {
	st, n := d.st, d.st.n
	var pts float64
	for i := 1; i <= n-2; i++ {
		for j := max(1, jlo); j <= min(n-2, jhi); j++ {
			for k := max(1, klo); k <= min(n-2, khi); k++ {
				st.u[st.idx(i, j, k)] += CoefAdd * st.r[st.ridx(0, i, j, k)]
				pts++
			}
		}
	}
	d.rk.ComputeLabeled(d.w.Add*pts, "add")
}
