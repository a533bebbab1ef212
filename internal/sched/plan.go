package sched

import (
	"sort"
	"strconv"
	"sync"

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

// KeyScratch is caller-owned scratch the memo key is rendered on, so a
// rank planning in a loop does not allocate per lookup beyond the key
// string itself.  Never share one across goroutines.
type KeyScratch struct {
	buf   []byte
	names []string
}

// Planner is the coalescing transfer planner and its memo.  A zero memo
// is ready to use, so a caller that only plans (the pass pipeline's
// volume probe) can build one from the three facts alone.
type Planner struct {
	Ctx  *cp.Context
	Sel  *cp.Selection
	Grid *hpf.Grid

	memo sync.Map // key → []comm.Transfer
}

// key renders every input of a plan: the procedure, the depth, each
// event's identity (statement, kind, full reference text, nest length —
// together these determine the event's sets), the strip window, and the
// entire scalar binding (a superset of the values the set algebra can
// read, so equal keys imply equal plans even if some bound scalar never
// occurs in a subscript).
func (ks *KeyScratch) key(proc *ir.Procedure, events []*comm.Event, at Point) string {
	b := ks.buf[:0]
	b = append(b, proc.Name...)
	b = strconv.AppendInt(b, int64(at.Depth), 10)
	for _, e := range events {
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(e.Stmt.ID), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(e.Kind), 10)
		b = append(b, e.Ref.String()...)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(len(e.Nest)), 10)
	}
	if at.Strip != nil {
		b = append(b, '#')
		b = append(b, at.Strip.Var...)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(at.Strip.Lo), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(at.Strip.Hi), 10)
	}
	names := ks.names[:0]
	for name := range at.Bind {
		names = append(names, name)
	}
	sort.Strings(names)
	ks.names = names
	for _, name := range names {
		b = append(b, ';')
		b = append(b, name...)
		b = append(b, '=')
		b = strconv.AppendInt(b, int64(at.Bind[name]), 10)
	}
	ks.buf = b
	return string(b)
}

// Transfers is Plan through the memo, for firings that repeat: the first
// computation of a key serves all ranks, executions and analyses that
// share the planner.  The result is shared: callers must not modify it.
func (pl *Planner) Transfers(proc *ir.Procedure, events []*comm.Event, at Point, ks *KeyScratch) []comm.Transfer {
	key := ks.key(proc, events, at)
	if cached, ok := pl.memo.Load(key); ok {
		return cached.([]comm.Transfer)
	}
	out := pl.Plan(proc, events, at)
	pl.memo.Store(key, out)
	return out
}

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
	for _, e := range events {
		layout := pl.Ctx.Layout(proc, e.Ref.Name)
		if layout == nil {
			continue
		}
		vars := ir.NestVars(e.Nest)
		for t := 0; t < ranks; t++ {
			iters := pl.Sel.CPOf(e.Stmt.ID).IterSet(e.Nest, at.Bind, pl.Ctx.LocalOf(proc, t))
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
				continue
			}
			data := cp.RefDataSet(e.Ref, vars, iters, at.Bind)
			data = data.IntersectBox(layout.Space())
			nl := data.SubtractBox(layout.LocalBox(t))
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
