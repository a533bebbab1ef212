package sched

import (
	"maps"
	"sort"

	"dhpf/internal/comm"
	"dhpf/internal/cp"
	"dhpf/internal/hpf"
	"dhpf/internal/ir"
	"dhpf/internal/iset"
)

// Strip is a strip window: iterations of the loop over Var are
// restricted to [Lo, Hi].
type Strip struct {
	Var    string
	Lo, Hi int
	slot   int // Var's slot, where the walker made the window
}

// Clamp restricts the range lo→hi of loop l (walked in the direction of
// l.Step) to the window when l is the strip loop.
func (s *Strip) Clamp(l *ir.Loop, lo, hi int) (int, int) {
	if s == nil || s.Var != l.Var {
		return lo, hi
	}
	if l.Step > 0 {
		return max(lo, s.Lo), min(hi, s.Hi)
	}
	return min(lo, s.Hi), max(hi, s.Lo)
}

// Point is where a transfer plan is taken: under the scalar binding Bind,
// with the outermost Depth loop variables of every event's nest fixed at
// their bound values, optionally inside a strip window.  The zero point —
// the parameter binding, depth 0, no strip — is the fully vectorized plan
// the report and the node-program printer show.
type Point struct {
	Bind  map[string]int
	Depth int
	Strip *Strip
}

// Planner is the coalescing transfer planner: a pure function of the
// three facts, so a caller that only plans (the pass pipeline's volume
// probe) can build one from them alone.
type Planner struct {
	Ctx  *cp.Context
	Sel  *cp.Selection
	Grid *hpf.Grid
}

// Firing is one placed event list — the events that fire together at one
// boundary — under the program-dense id its closed form is kept by.
// Firings are built by New and never change.
type Firing struct {
	ID     int
	Proc   *ir.Procedure
	Events []*comm.Event
}

// Transfer is one transfer of a rank's plan of a firing: Boxes are the
// planned set's boxes in canonical order (iset.Set.Each's, so every
// consumer packs and unpacks the same element order) and Elems its
// cardinality, filled only where the rank is From or To.  The walker
// owns them: they are valid until the firing's exchange ends.
type Transfer struct {
	Array    string
	Slot     int // Array's index in the firing procedure's ProcSched.Arrays
	From, To int
	Boxes    []iset.Box
	Elems    int64
}

// Bytes returns the message payload size.
func (t Transfer) Bytes() int64 { return 8 * t.Elems }

// Plan computes the vectorized, coalesced point-to-point transfers
// satisfying the events at the point: for every rank the data its
// iterations touch but it does not own, grouped by owner and merged per
// (array, from, to) across events — dhpf's message coalescing.  Read
// events move data owner → reader, write-backs writer → owner; callers
// pass events of one kind that fire together.  The plan depends only on
// sets, never on the asking rank, so every rank gets the identical list,
// which keeps message tags consistent.
func (pl *Planner) Plan(proc *ir.Procedure, events []*comm.Event, at Point) []comm.Transfer {
	type key struct {
		array    string
		from, to int
	}
	acc := map[key]iset.Set{}
	var order []key
	ranks := pl.Grid.Size()
	// At the zero point every rank's part is the statement's non-local
	// data, which the context's derived-set table serves.
	zero := at.Depth == 0 && at.Strip == nil && maps.Equal(at.Bind, pl.Ctx.Bind.Params)
	for _, e := range events {
		layout := pl.Ctx.Layout(proc, e.Ref.Name)
		if layout == nil {
			continue
		}
		c := pl.Sel.CPOf(e.Stmt.ID)
		vars := ir.NestVars(e.Nest)
		for t := 0; t < ranks; t++ {
			var nl iset.Set
			if zero {
				nl = pl.Ctx.NonLocal(proc, e.Stmt.ID, c, e.Nest, e.Ref, t)
			} else {
				nl = nonLocalAt(pl.Ctx, proc, c, e, vars, layout, t, at)
			}
			if nl.IsEmpty() {
				continue
			}
			for peer := 0; peer < ranks; peer++ {
				if peer == t {
					continue
				}
				part := nl.IntersectBox(layout.LocalBox(peer))
				if part.IsEmpty() {
					continue
				}
				k := key{array: e.Ref.Name, from: t, to: peer}
				if e.Kind == comm.ReadComm {
					k.from, k.to = peer, t
				}
				if _, seen := acc[k]; !seen {
					order = append(order, k)
				}
				acc[k] = acc[k].Union(part)
			}
		}
	}
	out := make([]comm.Transfer, 0, len(order))
	for _, k := range order {
		out = append(out, comm.Transfer{Array: k.array, From: k.from, To: k.to, Data: acc[k]})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Array != b.Array {
			return a.Array < b.Array
		}
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
	return out
}

// nonLocalAt is the data event e's reference touches on rank t at the
// point and t does not own: the statement's iterations under the point's
// binding, its outermost Depth loops fixed and its strip loop windowed.
func nonLocalAt(ctx *cp.Context, proc *ir.Procedure, c *cp.CP, e *comm.Event, vars []string, layout *hpf.Layout, t int, at Point) iset.Set {
	iters := c.IterSet(e.Nest, at.Bind, ctx.LocalOf(proc, t))
	for k := 0; k < at.Depth && k < len(vars); k++ {
		v := at.Bind[vars[k]]
		iters = iters.ClampDim(k, v, v)
	}
	if at.Strip != nil {
		for k, v := range vars {
			if v == at.Strip.Var {
				iters = iters.ClampDim(k, at.Strip.Lo, at.Strip.Hi)
			}
		}
	}
	if iters.IsEmpty() {
		return iters
	}
	data := cp.RefDataSet(e.Ref, vars, iters, at.Bind)
	return data.IntersectBox(layout.Space()).SubtractBox(layout.LocalBox(t))
}
