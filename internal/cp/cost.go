package cp

import (
	"dhpf/internal/ir"
	"dhpf/internal/iset"
)

// Cost-model constants for CP selection.  These weigh messages against
// moved elements the way a 1998-era MPP does: a message start-up costs
// on the order of hundreds of element-transfer times, so the selection
// strongly prefers plans with fewer, larger (vectorizable) messages —
// exactly the pressure that drives the paper's choices.
const (
	msgCost  = 512 // per contiguous non-local region (≈ one message)
	elemCost = 1   // per non-local element moved
)

// CommCost estimates the communication cost a CP assignment induces for
// the assignments under a loop nest, summed over sampled ranks.
//
// For each assignment S executed with iteration set I(p) on rank p:
//   - every distributed RHS reference R contributes the non-local part of
//     R(I(p)): data the rank reads but does not own;
//   - the LHS reference W contributes the non-local part of W(I(p)):
//     non-owner writes that the dhpf communication model sends back to
//     the owner (§2).
//
// The estimate deliberately ignores the later comm optimizations
// (vectorization placement, coalescing, availability): it is the simple
// approximate evaluation the paper's selection algorithm uses.
func (ctx *Context) CommCost(proc *ir.Procedure, loop *ir.Loop, cps map[int]*CP) int64 {
	ranks := ctx.sampleRanks()
	var total int64
	// What every sampled rank reads of an assignment — its nest's
	// variables and its references, the LHS first — is built once.
	type stmt struct {
		nest []*ir.Loop
		cp   *CP
		vars []string
		refs []*ir.ArrayRef
	}
	asn := ir.Assignments([]ir.Stmt{loop})
	stmts := make([]stmt, len(asn))
	for i, a := range asn {
		stmts[i] = stmt{a.Nest, cps[a.Assign.ID], ir.NestVars(a.Nest),
			append([]*ir.ArrayRef{a.Assign.LHS}, ir.Refs(a.Assign.RHS)...)}
	}
	for _, rank := range ranks {
		localOf := ctx.LocalOf(proc, rank)
		for _, a := range stmts {
			iters := a.cp.IterSet(a.nest, ctx.Bind.Params, localOf)
			if iters.IsEmpty() {
				continue
			}
			for _, r := range a.refs {
				l := ctx.Layout(proc, r.Name)
				if l == nil || len(r.Subs) == 0 {
					continue
				}
				local, _ := localOf(r.Name)
				data := RefDataSet(r, a.vars, iters, ctx.Bind.Params)
				data = data.IntersectBox(l.Space())
				nonlocal := data.SubtractBox(local)
				if nonlocal.IsEmpty() {
					continue
				}
				// A non-owner write (the LHS) also forces the owner's copy
				// to be fetched or the value returned: same order of cost
				// as a non-local read.
				total += int64(len(nonlocal.SharedBoxes()))*msgCost + nonlocal.Card()*elemCost
			}
		}
	}
	return total
}

// sampleRanks picks the ranks cost evaluation sums over: all of them for
// small grids, otherwise a spread of representatives (corners + middle
// of each grid dimension).
func (ctx *Context) sampleRanks() []int {
	grid, err := ctx.Grid()
	if err != nil {
		return []int{0}
	}
	n := grid.Size()
	if n <= 16 {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	seen := map[int]bool{}
	var out []int
	add := func(r int) {
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	// Corners and center of the grid.
	dims := len(grid.Shape)
	for mask := 0; mask < 1<<dims; mask++ {
		c := make([]int, dims)
		for d := 0; d < dims; d++ {
			if mask&(1<<d) != 0 {
				c[d] = grid.Shape[d] - 1
			}
		}
		add(grid.Rank(c))
	}
	mid := make([]int, dims)
	for d := range mid {
		mid[d] = grid.Shape[d] / 2
	}
	add(grid.Rank(mid))
	return out
}

// NonLocalData returns, for one rank, the non-local part of what a
// reference touches when a statement executes with the given iteration
// set — the primitive the comm package builds its events from.
func (ctx *Context) NonLocalData(proc *ir.Procedure, ref *ir.ArrayRef, nestVars []string, iters iset.Set, rank int) iset.Set {
	l := ctx.Layout(proc, ref.Name)
	if l == nil || len(ref.Subs) == 0 {
		return iset.EmptySet(len(ref.Subs))
	}
	data := RefDataSet(ref, nestVars, iters, ctx.Bind.Params)
	data = data.IntersectBox(l.Space())
	return data.SubtractBox(l.LocalBox(rank))
}
