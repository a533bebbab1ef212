package nas

import (
	"fmt"

	"dhpf/internal/hpf"
	"dhpf/internal/mpsim"
)

// TransposeRun is the result of a PGI-style run.
type TransposeRun struct {
	Machine *mpsim.Result
	N       int
	U, R    []float64
}

// RunTranspose executes the PGI-style implementation the paper describes
// for the pghpf codes (§8.1): a 1-D block distribution of the principal
// arrays along the z dimension for every phase except the z line solve;
// before that solve the needed arrays are copied (fully transposed) into
// variables distributed along y, the z sweeps run locally, and the
// results are transposed back.
func RunTranspose(bench string, n, steps, procs int, cfg mpsim.Config) (*TransposeRun, error) {
	lohi, states, res, err := transpose(bench, n, steps, procs, cfg, true)
	if err != nil {
		return nil, err
	}
	comp := states[0].comp
	out := &TransposeRun{Machine: res, N: n}
	out.U = make([]float64, n*n*n)
	out.R = make([]float64, comp*n*n*n)
	for rank, st := range states {
		klo, khi := lohi(rank)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				for k := klo; k <= khi; k++ {
					out.U[st.idx(i, j, k)] = st.u[st.idx(i, j, k)]
					for m := 0; m < comp; m++ {
						out.R[st.ridx(m, i, j, k)] = st.r[st.ridx(m, i, j, k)]
					}
				}
			}
		}
	}
	return out, nil
}

// ClockTranspose is RunTranspose's machine result without its data: the
// same driver, every phase charging the same point counts and every
// message its exact length, with no array allocated — so the clocks,
// flops and message totals are RunTranspose's bit for bit, at any size.
func ClockTranspose(bench string, n, steps, procs int, cfg mpsim.Config) (*mpsim.Result, error) {
	_, _, res, err := transpose(bench, n, steps, procs, cfg, false)
	return res, err
}

func transpose(bench string, n, steps, procs int, cfg mpsim.Config, data bool) (func(int) (int, int), []*handState, *mpsim.Result, error) {
	if procs > n {
		return nil, nil, nil, fmt.Errorf("nas: transpose version needs procs ≤ n")
	}
	blk := hpf.DefaultBlockSize(n, procs)
	lohi := func(rank int) (int, int) {
		lo := rank * blk
		hi := min(lo+blk-1, n-1)
		return lo, hi
	}
	states, res, err := runHand("transpose", bench, n, procs, data, cfg, func(h *handRank) {
		d := &tpDriver{handRank: h, procs: procs, lohi: lohi}
		d.run(steps)
	})
	return lohi, states, res, err
}

type tpDriver struct {
	*handRank
	procs int
	lohi  func(int) (int, int)
}

func (d *tpDriver) run(steps int) {
	st, n := d.st, d.n
	klo, khi := d.lohi(d.rk.ID)
	// Initialize the slab plus a 2-deep k halo.
	for i := 0; st != nil && i < n; i++ {
		for j := 0; j < n; j++ {
			for k := max(0, klo-2); k <= min(n-1, khi+2); k++ {
				st.initPoint(i, j, k)
			}
		}
	}
	slabPts := float64(n * n * (khi - klo + 1))
	d.rk.ComputeLabeled(d.w.Init*slabPts, "init")

	for s := 0; s < steps; s++ {
		d.haloExchange(klo, khi)
		d.computeRHS(klo, khi)
		if d.bt {
			d.jacPhase(klo, khi)
		} else {
			d.spdPhase(klo, khi)
		}
		// x and y sweeps: fully local for a z-distributution.
		d.sweeps(0, max(klo, 1), min(khi, n-2), "x_solve")
		d.sweeps(1, max(klo, 1), min(khi, n-2), "y_solve")
		// z sweeps: transpose to a y-distribution, solve, transpose back.
		d.zSolveWithTranspose(klo, khi)
		d.addPhase(klo, khi)
	}
}

// planes returns the k planes among rows that lie inside the grid.
func (d *tpDriver) planes(rows [2]int) []int {
	return clampPivots(rows[:], 0, d.n-1)
}

// haloExchange ships 2 k-planes of u to each z neighbour.
func (d *tpDriver) haloExchange(klo, khi int) {
	st, n := d.st, d.n
	me := d.rk.ID
	for _, dir := range []int{+1, -1} {
		peer := me + dir
		tag := d.nextTag()
		if peer >= 0 && peer < d.procs {
			var rows [2]int
			if dir > 0 {
				rows = [2]int{khi - 1, khi}
			} else {
				rows = [2]int{klo, klo + 1}
			}
			planes := d.planes(rows)
			var payload []float64
			for _, k := range planes {
				for i := 0; st != nil && i < n; i++ {
					for j := 0; j < n; j++ {
						payload = append(payload, st.u[st.idx(i, j, k)])
					}
				}
			}
			d.send(peer, tag, len(planes)*n*n, payload)
		}
		// Receive from the opposite neighbour with the same tag position.
		from := me - dir
		if from >= 0 && from < d.procs {
			data := d.rk.Recv(from, tag)
			flo, fhi := d.lohi(from)
			var rows [2]int
			if dir > 0 {
				rows = [2]int{fhi - 1, fhi}
			} else {
				rows = [2]int{flo, flo + 1}
			}
			at := 0
			for _, k := range d.planes(rows) {
				for i := 0; st != nil && i < n; i++ {
					for j := 0; j < n; j++ {
						st.u[st.idx(i, j, k)] = data[at]
						at++
					}
				}
			}
		}
	}
}

func (d *tpDriver) computeRHS(klo, khi int) {
	st, n := d.st, d.n
	for i := 0; st != nil && i < n; i++ {
		for j := 0; j < n; j++ {
			for k := max(0, klo-1); k <= min(n-1, khi+1); k++ {
				st.rhoPoint(i, j, k)
			}
		}
	}
	for i := 2; st != nil && i <= n-3; i++ {
		for j := 2; j <= n-3; j++ {
			for k := max(2, klo); k <= min(n-3, khi); k++ {
				st.stencilPoint(i, j, k, d.bt)
			}
		}
	}
	rhoPts := float64(n * n * span(max(0, klo-1), min(n-1, khi+1)))
	stPts := float64(span(2, n-3) * span(2, n-3) * span(max(2, klo), min(n-3, khi)))
	mul := float64(d.comp)
	d.rk.ComputeLabeled(d.w.Rho*rhoPts+d.w.Stencil*stPts*mul, "compute_rhs")
}

// jacPhase runs BT's block-Jacobian setup on the slab.
func (d *tpDriver) jacPhase(klo, khi int) {
	st, n := d.st, d.n
	for dim := 0; st != nil && dim < 3; dim++ {
		for i := 1; i <= n-2; i++ {
			for j := 1; j <= n-2; j++ {
				for k := max(1, klo); k <= min(n-2, khi); k++ {
					st.jacPoint(dim, i, j, k)
				}
			}
		}
	}
	pts := float64(3 * span(1, n-2) * span(1, n-2) * span(max(1, klo), min(n-2, khi)))
	c := float64(d.comp)
	d.rk.ComputeLabeled(d.w.Jac*pts*c*c, "lhs")
}

func (d *tpDriver) spdPhase(klo, khi int) {
	st, n := d.st, d.n
	for i := 0; st != nil && i < n; i++ {
		for j := 1; j <= n-2; j++ {
			for k := klo; k <= khi; k++ {
				st.spdPoint(i, j, k)
			}
		}
	}
	pts := float64(n * span(1, n-2) * span(klo, khi))
	d.rk.ComputeLabeled((d.w.Cv+d.w.Spd)*pts, "lhs")
}

// sweeps runs every system's forward eliminations, then every system's
// back substitutions, along dim over the interior lines whose last
// coordinate lies in [blo, bhi] — all pivots local.
func (d *tpDriver) sweeps(dim, blo, bhi int, label string) {
	st, n := d.st, d.n
	plo, phi := 1, n-4
	pts := float64(span(plo, phi) * span(1, n-2) * span(blo, bhi))
	for _, sys := range d.systems {
		for p := plo; st != nil && p <= phi; p++ {
			for a := 1; a <= n-2; a++ {
				for b := blo; b <= bhi; b++ {
					st.applyPivot(dim, p, a, b, sys, 0, n-1, 0, nil)
				}
			}
		}
		d.rk.ComputeLabeled(d.w.Fwd*pts*float64(sys.Comps()), label)
	}
	for _, sys := range d.systems {
		for p := phi; st != nil && p >= plo; p-- {
			for a := 1; a <= n-2; a++ {
				for b := blo; b <= bhi; b++ {
					st.backSub(dim, p, a, b, sys)
				}
			}
		}
		d.rk.ComputeLabeled(d.w.Bwd*pts*float64(sys.Comps()), label)
	}
}

// zSolveWithTranspose redistributes u, spd and r to a y-block layout,
// runs the z sweeps locally, and transposes r back.
func (d *tpDriver) zSolveWithTranspose(klo, khi int) {
	st, n := d.st, d.n
	me := d.rk.ID
	jlo, jhi := d.lohi(me)

	// Forward transpose: peer p gets my k rows restricted to p's j rows —
	// u, SP's spd and the components of r.
	var arrays, rOnly [][]float64
	comps := 1 + d.comp
	if !d.bt {
		comps++
	}
	if st != nil {
		arrays, rOnly = [][]float64{st.u, st.r}, [][]float64{st.r}
		if !d.bt {
			arrays = [][]float64{st.u, st.spd, st.r}
		}
	}
	base := d.tag + 1
	d.tag += d.procs
	for peer := 0; peer < d.procs; peer++ {
		if peer == me {
			continue
		}
		pjlo, pjhi := d.lohi(peer)
		d.send(peer, base+me, comps*n*span(pjlo, pjhi)*span(klo, khi), d.pack(arrays, pjlo, pjhi, klo, khi))
	}
	for peer := 0; peer < d.procs; peer++ {
		if peer == me {
			continue
		}
		pklo, pkhi := d.lohi(peer)
		d.unpack(arrays, d.rk.Recv(peer, base+peer), jlo, jhi, pklo, pkhi)
	}

	// Local z sweeps over my j rows (interior lines), all k.
	d.sweeps(2, max(jlo, 1), min(jhi, n-2), "z_solve")

	// Transpose r back: peer p gets my j rows restricted to p's k rows.
	base = d.tag + 1
	d.tag += d.procs
	for peer := 0; peer < d.procs; peer++ {
		if peer == me {
			continue
		}
		pklo, pkhi := d.lohi(peer)
		d.send(peer, base+me, d.comp*n*span(jlo, jhi)*span(pklo, pkhi), d.pack(rOnly, jlo, jhi, pklo, pkhi))
	}
	for peer := 0; peer < d.procs; peer++ {
		if peer == me {
			continue
		}
		pjlo, pjhi := d.lohi(peer)
		d.unpack(rOnly, d.rk.Recv(peer, base+peer), pjlo, pjhi, klo, khi)
	}
}

// pack serializes the block [0:n-1]×[jlo:jhi]×[klo:khi] of each array,
// component by component (r carries comp of them).
func (d *tpDriver) pack(arrays [][]float64, jlo, jhi, klo, khi int) []float64 {
	var payload []float64
	d.block(arrays, jlo, jhi, klo, khi, func(v *float64) { payload = append(payload, *v) })
	return payload
}

func (d *tpDriver) unpack(arrays [][]float64, data []float64, jlo, jhi, klo, khi int) {
	d.block(arrays, jlo, jhi, klo, khi, func(v *float64) { *v, data = data[0], data[1:] })
}

// block visits the block [0:n-1]×[jlo:jhi]×[klo:khi] of each array in
// message order.
func (d *tpDriver) block(arrays [][]float64, jlo, jhi, klo, khi int, visit func(*float64)) {
	st, n := d.st, d.n
	for _, arr := range arrays {
		for m := 0; m < len(arr)/(n*n*n); m++ {
			for i := 0; i < n; i++ {
				for j := jlo; j <= jhi; j++ {
					for k := klo; k <= khi; k++ {
						visit(&arr[st.ridx(m, i, j, k)])
					}
				}
			}
		}
	}
}

func (d *tpDriver) addPhase(klo, khi int) {
	st, n := d.st, d.n
	for i := 2; st != nil && i <= n-3; i++ {
		for j := 2; j <= n-3; j++ {
			for k := max(2, klo); k <= min(n-3, khi); k++ {
				st.addPoint(i, j, k, d.bt)
			}
		}
	}
	pts := float64(span(2, n-3) * span(2, n-3) * span(max(2, klo), min(n-3, khi)))
	d.rk.ComputeLabeled(d.w.Add*pts, "add")
}
