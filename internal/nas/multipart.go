package nas

import (
	"fmt"
	"math"

	"dhpf/internal/hpf"
	"dhpf/internal/iset"
	"dhpf/internal/mpsim"
)

// MultipartRun is the result of a hand-coded multipartitioning run.
type MultipartRun struct {
	Machine *mpsim.Result
	N       int
	U, R    []float64 // gathered global arrays (R concatenates components)
}

// RunMultipart executes the hand-written message-passing version of SP
// or BT using diagonal multipartitioning on q² ranks — the paper's
// hand-MPI baseline (§3, §8).  Per time step it performs:
//
//	copy_faces    one coalesced message per face direction (6 per rank)
//	              carrying the 2-deep u halos of every owned cell;
//	compute_rhs   local (reciprocals recomputed on a 1-grown region);
//	x/y/z solves  bi-directional sweeps: at each of the Q stages every
//	              rank owns exactly one cell of the active slab, receives
//	              its predecessor's last two pivot rows (values + factor),
//	              eliminates its own rows, and forwards its own last two
//	              pivot rows — the NPB2.3b2 x_send_solve_info protocol;
//	add           local.
func RunMultipart(bench string, n, steps, procs int, cfg mpsim.Config) (*MultipartRun, error) {
	mp, states, res, err := multipart(bench, n, steps, procs, cfg, true)
	if err != nil {
		return nil, err
	}
	comp := states[0].comp
	out := &MultipartRun{Machine: res, N: n}
	out.U = make([]float64, n*n*n)
	out.R = make([]float64, comp*n*n*n)
	for rank, st := range states {
		mp.LocalSet(rank).Each(func(p []int) bool {
			i, j, k := p[0], p[1], p[2]
			out.U[st.idx(i, j, k)] = st.u[st.idx(i, j, k)]
			for m := 0; m < comp; m++ {
				out.R[st.ridx(m, i, j, k)] = st.r[st.ridx(m, i, j, k)]
			}
			return true
		})
	}
	return out, nil
}

// ClockMultipart is RunMultipart's machine result without its data: the
// same driver, every phase charging the same point counts and every
// message its exact length, with no array allocated — so the clocks,
// flops and message totals are RunMultipart's bit for bit, at any size.
func ClockMultipart(bench string, n, steps, procs int, cfg mpsim.Config) (*mpsim.Result, error) {
	_, _, res, err := multipart(bench, n, steps, procs, cfg, false)
	return res, err
}

func multipart(bench string, n, steps, procs int, cfg mpsim.Config, data bool) (*hpf.Multipartition, []*handState, *mpsim.Result, error) {
	q := int(math.Round(math.Sqrt(float64(procs))))
	if q*q != procs {
		return nil, nil, nil, fmt.Errorf("nas: multipartitioning needs a square rank count, got %d", procs)
	}
	mp, err := hpf.NewMultipartition(q, n, n, n)
	if err != nil {
		return nil, nil, nil, err
	}
	states, res, err := runHand("multipart", bench, n, procs, data, cfg, func(h *handRank) {
		d := &mpDriver{handRank: h, mp: mp}
		d.run(steps)
	})
	return mp, states, res, err
}

type mpDriver struct {
	*handRank
	mp *hpf.Multipartition
}

func (d *mpDriver) cells() [][3]int { return d.mp.CellsOf(d.rk.ID) }

func (d *mpDriver) cellBox(c [3]int) iset.Box { return d.mp.CellBox(c[0], c[1], c[2]) }

// within clamps a box to [lo, n-1-lo] along every dimension.
func (d *mpDriver) within(box iset.Box, lo int) iset.Box {
	hi := d.n - 1 - lo
	return box.Intersect(iset.NewBox([]int{lo, lo, lo}, []int{hi, hi, hi}))
}

func (d *mpDriver) run(steps int) {
	// Init: everything local (each rank initializes the union of its
	// cells grown by the halo depth, so copy_faces has valid sources).
	var ownPts float64
	for _, c := range d.cells() {
		ownPts += float64(d.cellBox(c).Card())
		if st := d.st; st != nil {
			d.within(d.cellBox(c).Grow(0, 2, 2).Grow(1, 2, 2).Grow(2, 2, 2), 0).Each(func(p []int) bool {
				st.initPoint(p[0], p[1], p[2])
				return true
			})
		}
	}
	d.rk.ComputeLabeled(d.w.Init*ownPts, "init")

	for s := 0; s < steps; s++ {
		d.copyFaces()
		d.computeRHS()
		if d.bt {
			d.jacPhase()
		} else {
			d.spdPhase()
		}
		for dim := 0; dim < 3; dim++ {
			label := [3]string{"x_solve", "y_solve", "z_solve"}[dim]
			for _, sys := range d.systems {
				d.forwardSweep(dim, sys, label, d.tagBlock())
			}
			for _, sys := range d.systems {
				d.backwardSweep(dim, sys, label, d.tagBlock())
			}
		}
		d.addPhase()
	}
}

// copyFaces exchanges the 2-deep u faces of every owned cell, one
// coalesced message per face direction (all cells' faces for a direction
// go to the same peer — the multipartitioning neighbour property).
func (d *mpDriver) copyFaces() {
	n := d.n
	for dim := 0; dim < 3; dim++ {
		for _, dir := range []int{+1, -1} {
			// Outgoing: my boundary planes toward dir.
			var payload []float64
			sendPeer, elems := -1, 0
			for _, c := range d.cells() {
				nc := c
				nc[dim] += dir
				if nc[dim] < 0 || nc[dim] >= d.mp.Q {
					continue
				}
				sendPeer = d.mp.OwnerOfCell(nc[0], nc[1], nc[2])
				box := d.cellBox(c)
				var rows [2]int
				if dir > 0 {
					rows = [2]int{box.Hi[dim] - 1, box.Hi[dim]}
				} else {
					rows = [2]int{box.Lo[dim], box.Lo[dim] + 1}
				}
				for _, row := range rows {
					if row < 0 || row >= n {
						continue
					}
					face := box.WithDim(dim, row, row)
					elems += int(face.Card())
					if st := d.st; st != nil {
						face.Each(func(p []int) bool {
							payload = append(payload, st.u[st.idx(p[0], p[1], p[2])])
							return true
						})
					}
				}
			}
			tag := d.nextTag()
			if sendPeer >= 0 {
				d.send(sendPeer, tag, elems, payload)
			}
			// Incoming: halos beyond my cells opposite to dir come from
			// the -dir neighbour, which sent with the same tag sequence.
			recvPeer := -1
			var regions []iset.Box
			for _, c := range d.cells() {
				nc := c
				nc[dim] -= dir
				if nc[dim] < 0 || nc[dim] >= d.mp.Q {
					continue
				}
				recvPeer = d.mp.OwnerOfCell(nc[0], nc[1], nc[2])
				box := d.cellBox(c)
				var rows [2]int
				if dir > 0 {
					rows = [2]int{box.Lo[dim] - 2, box.Lo[dim] - 1}
				} else {
					rows = [2]int{box.Hi[dim] + 1, box.Hi[dim] + 2}
				}
				for _, row := range rows {
					if row < 0 || row >= n {
						continue
					}
					regions = append(regions, box.WithDim(dim, row, row))
				}
			}
			if recvPeer < 0 {
				continue
			}
			data := d.rk.Recv(recvPeer, tag)
			if st := d.st; st != nil {
				at := 0
				for _, face := range regions {
					face.Each(func(p []int) bool {
						st.u[st.idx(p[0], p[1], p[2])] = data[at]
						at++
						return true
					})
				}
			}
		}
	}
}

func (d *mpDriver) computeRHS() {
	var rhoPts, stPts float64
	for _, c := range d.cells() {
		box := d.cellBox(c)
		// Reciprocals on the cell grown by 1 along each axis (the local
		// replication that stands in for LOCALIZE).
		grown := d.within(box.Grow(0, 1, 1).Grow(1, 1, 1).Grow(2, 1, 1), 0)
		inner := d.within(box, 2)
		rhoPts += float64(grown.Card())
		stPts += float64(inner.Card())
		if st := d.st; st != nil {
			grown.Each(func(p []int) bool {
				st.rhoPoint(p[0], p[1], p[2])
				return true
			})
			inner.Each(func(p []int) bool {
				st.stencilPoint(p[0], p[1], p[2], d.bt)
				return true
			})
		}
	}
	mul := float64(d.comp)
	d.rk.ComputeLabeled(d.w.Rho*rhoPts+d.w.Stencil*stPts*mul, "compute_rhs")
}

// jacPhase runs BT's fully-parallel block-Jacobian setup on own cells.
func (d *mpDriver) jacPhase() {
	var pts float64
	for dim := 0; dim < 3; dim++ {
		for _, c := range d.cells() {
			box := d.within(d.cellBox(c), 1)
			pts += float64(box.Card())
			if st := d.st; st != nil {
				box.Each(func(p []int) bool {
					st.jacPoint(dim, p[0], p[1], p[2])
					return true
				})
			}
		}
	}
	c := float64(d.comp)
	d.rk.ComputeLabeled(d.w.Jac*pts*c*c, "lhs")
}

func (d *mpDriver) spdPhase() {
	n := d.n
	var pts float64
	for _, c := range d.cells() {
		box := d.cellBox(c).Intersect(iset.NewBox([]int{0, 1, 0}, []int{n - 1, n - 2, n - 1}))
		pts += float64(box.Card())
		if st := d.st; st != nil {
			box.Each(func(p []int) bool {
				st.spdPoint(p[0], p[1], p[2])
				return true
			})
		}
	}
	d.rk.ComputeLabeled((d.w.Cv+d.w.Spd)*pts, "lhs")
}

// pivotRange returns the global forward/backward pivot range.
func (d *mpDriver) pivotRange() (int, int) { return 1, d.n - 4 }

// tagBlock reserves Q tags for one sweep's stage boundaries; boundary b
// (between stages b and b+1) uses tag base+b on both sides.
func (d *mpDriver) tagBlock() int {
	base := d.tag + 1
	d.tag += d.mp.Q
	return base
}

// forwardSweep runs one system's forward elimination along dim over the
// Q stages.
func (d *mpDriver) forwardSweep(dim int, sys SweepSystem, label string, tagBase int) {
	st, nc := d.st, sys.Comps()
	plo, phi := d.pivotRange()
	for s := 0; s < d.mp.Q; s++ {
		c := d.cellInSlab(dim, s)
		box := d.cellBox(c)
		lo, hi := box.Lo[dim], box.Hi[dim]
		foot := footprint(box, dim, d.n)

		// Receive the predecessor's last two pivots and apply their
		// contributions to my rows.
		if s > 0 {
			pred := c
			pred[dim]--
			peer := d.mp.OwnerOfCell(pred[0], pred[1], pred[2])
			pivots := clampPivots([]int{lo - 2, lo - 1}, plo, phi)
			if len(pivots) > 0 {
				data := d.rk.Recv(peer, tagBase+s-1)
				if st != nil {
					at := 0
					for _, p := range pivots {
						foot.Each(func(ab []int) bool {
							st.applyPivot(dim, p, ab[0], ab[1], sys, lo, hi, data[at], data[at+1:at+1+nc])
							at += 1 + nc
							return true
						})
					}
				}
			}
		}

		// Eliminate my own pivots, writing only into my rows.
		first, last := max(lo, plo), min(hi, phi)
		pts := float64(span(first, last) * int(foot.Card()))
		for p := first; st != nil && p <= last; p++ {
			foot.Each(func(ab []int) bool {
				st.applyPivot(dim, p, ab[0], ab[1], sys, lo, hi, 0, nil)
				return true
			})
		}
		d.rk.ComputeLabeled(d.w.Fwd*pts*float64(nc), label)

		// Forward my last two pivots to the successor stage.
		if s < d.mp.Q-1 {
			succ := c
			succ[dim]++
			peer := d.mp.OwnerOfCell(succ[0], succ[1], succ[2])
			pivots := clampPivots([]int{hi - 1, hi}, plo, phi)
			if len(pivots) > 0 {
				var payload []float64
				if st != nil {
					for _, p := range pivots {
						foot.Each(func(ab []int) bool {
							i, j, k := point(dim, p, ab[0], ab[1])
							payload = append(payload, st.fac(sys, i, j, k))
							for m := sys.Mlo; m <= sys.Mhi; m++ {
								payload = append(payload, st.r[st.ridx(m, i, j, k)])
							}
							return true
						})
					}
				}
				d.send(peer, tagBase+s, len(pivots)*int(foot.Card())*(1+nc), payload)
			}
		}
	}
}

// backwardSweep runs one system's back substitution along dim, stages
// descending.
func (d *mpDriver) backwardSweep(dim int, sys SweepSystem, label string, tagBase int) {
	st, n, nc := d.st, d.n, sys.Comps()
	plo, phi := d.pivotRange()
	for s := d.mp.Q - 1; s >= 0; s-- {
		c := d.cellInSlab(dim, s)
		box := d.cellBox(c)
		lo, hi := box.Lo[dim], box.Hi[dim]
		foot := footprint(box, dim, n)

		// Receive the two finished rows beyond my cell.
		if s < d.mp.Q-1 {
			succ := c
			succ[dim]++
			peer := d.mp.OwnerOfCell(succ[0], succ[1], succ[2])
			data := d.rk.Recv(peer, tagBase+s)
			if st != nil {
				at := 0
				for _, row := range clampPivots([]int{hi + 1, hi + 2}, 0, n-1) {
					foot.Each(func(ab []int) bool {
						i, j, k := point(dim, row, ab[0], ab[1])
						for m := sys.Mlo; m <= sys.Mhi; m++ {
							st.r[st.ridx(m, i, j, k)] = data[at]
							at++
						}
						return true
					})
				}
			}
		}

		// Back-substitute my rows, descending.
		first, last := max(lo, plo), min(hi, phi)
		pts := float64(span(first, last) * int(foot.Card()))
		for p := last; st != nil && p >= first; p-- {
			foot.Each(func(ab []int) bool {
				st.backSub(dim, p, ab[0], ab[1], sys)
				return true
			})
		}
		d.rk.ComputeLabeled(d.w.Bwd*pts*float64(nc), label)

		// Send my first two rows to the previous stage.
		if s > 0 {
			pred := c
			pred[dim]--
			peer := d.mp.OwnerOfCell(pred[0], pred[1], pred[2])
			rows := clampPivots([]int{lo, lo + 1}, 0, n-1)
			var payload []float64
			if st != nil {
				for _, row := range rows {
					foot.Each(func(ab []int) bool {
						i, j, k := point(dim, row, ab[0], ab[1])
						for m := sys.Mlo; m <= sys.Mhi; m++ {
							payload = append(payload, st.r[st.ridx(m, i, j, k)])
						}
						return true
					})
				}
			}
			d.send(peer, tagBase+s-1, len(rows)*int(foot.Card())*nc, payload)
		}
	}
}

func (d *mpDriver) addPhase() {
	var pts float64
	for _, c := range d.cells() {
		box := d.within(d.cellBox(c), 2)
		pts += float64(box.Card())
		if st := d.st; st != nil {
			box.Each(func(p []int) bool {
				st.addPoint(p[0], p[1], p[2], d.bt)
				return true
			})
		}
	}
	d.rk.ComputeLabeled(d.w.Add*pts, "add")
}

// cellInSlab returns this rank's unique cell with coordinate s along dim.
func (d *mpDriver) cellInSlab(dim, s int) [3]int {
	for _, c := range d.cells() {
		if c[dim] == s {
			return c
		}
	}
	panic("nas: multipartitioning lost the sweep property")
}

// footprint is the 2-D box of the non-sweep dimensions of a cell box,
// clamped to the interior line range the solves cover (the sources sweep
// lines in [1, n-2] only).
func footprint(box iset.Box, dim, n int) iset.Box {
	f := box.Drop(dim)
	for d := 0; d < 2; d++ {
		f.Lo[d] = max(f.Lo[d], 1)
		f.Hi[d] = min(f.Hi[d], n-2)
	}
	return f
}

func clampPivots(rows []int, lo, hi int) []int {
	var out []int
	for _, r := range rows {
		if r >= lo && r <= hi {
			out = append(out, r)
		}
	}
	return out
}
