package cp

import (
	"fmt"
	"slices"
	"sync"

	"dhpf/internal/dep"
	"dhpf/internal/ir"
	"dhpf/internal/iset"
)

// derived is the table of what the passes ask for instead of deriving it
// again: each body's dependences, and at the parameter binding each
// statement's iteration set per rank and each reference's non-local data
// per rank.  It is a cache, never a source of truth: a dependence graph
// is dropped when loop distribution rewrites its body, a set row is
// stamped with what it was computed from and a lookup whose inputs differ
// recomputes it, so a caller that swaps a CP or rewrites a nest can never
// read a stale entry.  Sets are shared under iset's read-only rule.
//
// Lifetimes differ: iteration rows stay with the Context (Report and the
// node printer read them after compile); dependence graphs and the
// non-local table are read by passes only and are dropped when the pass
// pipeline ends (EndPipeline), after which Deps and NonLocal compute
// without keeping.
type derived struct {
	mu    sync.Mutex
	deps  map[*ir.Procedure][]*dep.Dependence
	iters []*iterRow               // by statement id
	nl    map[*ir.ArrayRef][]nlRow // by reference, then rank
	ended bool
}

// Deps returns the dependences of proc's body as it stands, derived the
// first time a pass asks and kept until loop distribution rewrites the
// body.  The cold dependence pass asks for every procedure's; a warm
// compile only for the procedures it re-selects, plans or distributes.
func (ctx *Context) Deps(proc *ir.Procedure) []*dep.Dependence {
	t := &ctx.sets
	t.mu.Lock()
	if d, ok := t.deps[proc]; ok {
		t.mu.Unlock()
		return d
	}
	t.mu.Unlock()
	d := dep.Analyze(proc.Body)
	t.mu.Lock()
	if !t.ended {
		if t.deps == nil {
			t.deps = map[*ir.Procedure][]*dep.Dependence{}
		}
		t.deps[proc] = d
	}
	t.mu.Unlock()
	return d
}

// DepsHeld counts the dependences the context holds: after the cold
// dependence pass every procedure's, after a warm one the dirty
// procedures'.
func (ctx *Context) DepsHeld() int {
	t := &ctx.sets
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, d := range t.deps {
		n += len(d)
	}
	return n
}

// dropDeps forgets proc's dependences once its body has been rewritten;
// the next Deps derives them from the body as it then stands.
func (ctx *Context) dropDeps(proc *ir.Procedure) {
	ctx.sets.mu.Lock()
	delete(ctx.sets.deps, proc)
	ctx.sets.mu.Unlock()
}

// iterRow is one statement's iteration sets, one per rank, stamped with
// the procedure, CP and nest they were computed for.  Rows are immutable.
type iterRow struct {
	proc *ir.Procedure
	cp   *CP
	nest []*ir.Loop
	vars []string
	sets []iset.Set // by rank
}

// nlRow is one reference's non-local data on one rank, stamped with the
// iteration row it was computed from.
type nlRow struct {
	from *iterRow
	set  iset.Set
}

// fits reports whether the row was computed from these inputs.  Every
// replicated CP yields the whole iteration space, so any two stamp alike.
func (r *iterRow) fits(proc *ir.Procedure, c *CP, nest []*ir.Loop, rank int) bool {
	return r.proc == proc && (r.cp == c || r.cp.Replicated() && c.Replicated()) &&
		slices.Equal(r.nest, nest) && rank < len(r.sets)
}

// IterSet returns c.IterSet(nest, ctx.Bind.Params, ctx.LocalOf(proc,
// rank)) for statement id, which c partitions and nest encloses, computed
// once per (statement, rank) while c and nest stay the same.
func (ctx *Context) IterSet(proc *ir.Procedure, id int, c *CP, nest []*ir.Loop, rank int) iset.Set {
	return ctx.iterRow(proc, id, c, nest, rank).sets[rank]
}

// iterRow returns the statement's row.  On a miss it computes every
// rank's set: every reader asks for all of them.
func (ctx *Context) iterRow(proc *ir.Procedure, id int, c *CP, nest []*ir.Loop, rank int) *iterRow {
	t := &ctx.sets
	t.mu.Lock()
	if id < len(t.iters) {
		if row := t.iters[id]; row != nil && row.fits(proc, c, nest, rank) {
			t.mu.Unlock()
			return row
		}
	}
	t.mu.Unlock()
	ranks := rank + 1
	if grid, err := ctx.Grid(); err == nil {
		ranks = max(ranks, grid.Size())
	}
	row := &iterRow{proc: proc, cp: c, nest: slices.Clone(nest), vars: ir.NestVars(nest), sets: make([]iset.Set, ranks)}
	for r := range row.sets {
		if r > 0 && c.Replicated() {
			row.sets[r] = row.sets[0] // the whole iteration space on every rank
			continue
		}
		row.sets[r] = c.IterSet(nest, ctx.Bind.Params, ctx.LocalOf(proc, r))
	}
	t.mu.Lock()
	t.setRow(id, row)
	t.mu.Unlock()
	return row
}

func (t *derived) setRow(id int, row *iterRow) {
	if id >= len(t.iters) {
		t.iters = append(t.iters, make([]*iterRow, id+1-len(t.iters))...)
	}
	t.iters[id] = row
}

// NonLocal returns NonLocalData of ref over statement id's iteration set
// on rank (IterSet's arguments): what the rank touches through ref and
// does not own.  While the pass pipeline runs it is computed once per
// (reference, rank) and iteration set.
func (ctx *Context) NonLocal(proc *ir.Procedure, id int, c *CP, nest []*ir.Loop, ref *ir.ArrayRef, rank int) iset.Set {
	if ctx.Layout(proc, ref.Name) == nil || len(ref.Subs) == 0 {
		return iset.EmptySet(len(ref.Subs))
	}
	from := ctx.iterRow(proc, id, c, nest, rank)
	iters := from.sets[rank]
	if iters.IsEmpty() {
		return iset.EmptySet(len(ref.Subs))
	}
	t := &ctx.sets
	t.mu.Lock()
	if t.ended {
		t.mu.Unlock()
		return ctx.NonLocalData(proc, ref, from.vars, iters, rank)
	}
	if rows := t.nl[ref]; rank < len(rows) && rows[rank].from == from {
		t.mu.Unlock()
		return rows[rank].set
	}
	t.mu.Unlock()
	set := ctx.NonLocalData(proc, ref, from.vars, iters, rank)
	t.mu.Lock()
	if !t.ended {
		if t.nl == nil {
			t.nl = map[*ir.ArrayRef][]nlRow{}
		}
		rows := t.nl[ref]
		if rank >= len(rows) {
			rows = append(rows, make([]nlRow, rank+1-len(rows))...)
			t.nl[ref] = rows
		}
		rows[rank] = nlRow{from: from, set: set}
	}
	t.mu.Unlock()
	return set
}

// EndPipeline releases what only the passes read — the dependence graphs
// and the non-local table — keeping the iteration rows; Deps and NonLocal
// compute without keeping from then on.  It is called once the pipeline's
// result becomes a program, before anything else can see the context.
func (ctx *Context) EndPipeline() {
	ctx.sets.mu.Lock()
	ctx.sets.deps, ctx.sets.nl, ctx.sets.ended = nil, nil, true
	ctx.sets.mu.Unlock()
}

// Audit re-derives everything the context derived once and reports the
// first difference: every dependence graph it holds against a fresh
// dep.Analyze of its body as it stands, and every filled table row
// against a from-scratch CP.IterSet or NonLocalData of its stamp.  It is
// the test oracle for "a cache, never a source of truth".
func (ctx *Context) Audit() error {
	t := &ctx.sets
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, proc := range ctx.Prog.Procs {
		held, ok := t.deps[proc]
		if !ok {
			continue
		}
		if err := sameDeps(held, dep.Analyze(proc.Body)); err != nil {
			return fmt.Errorf("cp: proc %s: Deps is not the dependences of its body: %w", proc.Name, err)
		}
	}
	for id, row := range t.iters {
		if row == nil {
			continue
		}
		for rank, set := range row.sets {
			if want := row.cp.IterSet(row.nest, ctx.Bind.Params, ctx.LocalOf(row.proc, rank)); !set.Eq(want) {
				return fmt.Errorf("cp: stmt %d rank %d: iteration row %s, from scratch %s", id, rank, set, want)
			}
		}
	}
	for ref, rows := range t.nl {
		for rank, row := range rows {
			if row.from == nil {
				continue
			}
			if want := ctx.NonLocalData(row.from.proc, ref, row.from.vars, row.from.sets[rank], rank); !row.set.Eq(want) {
				return fmt.Errorf("cp: %s rank %d: non-local row %s, from scratch %s", ref, rank, row.set, want)
			}
		}
	}
	return nil
}

// sameDeps compares two dependence lists element by element.  dep.Analyze
// makes a new reference for every scalar read, so scalar references
// compare by name.
func sameDeps(have, want []*dep.Dependence) error {
	if len(have) != len(want) {
		return fmt.Errorf("%d dependences, fresh analysis %d", len(have), len(want))
	}
	sameRef := func(a, b *ir.ArrayRef) bool {
		return a == b || len(a.Subs) == 0 && len(b.Subs) == 0 && a.Name == b.Name
	}
	for i, h := range have {
		w := want[i]
		if h.Kind != w.Kind || h.Src != w.Src || h.Dst != w.Dst || h.Level != w.Level ||
			!sameRef(h.SrcRef, w.SrcRef) || !sameRef(h.DstRef, w.DstRef) ||
			!slices.Equal(h.CommonNest, w.CommonNest) || !slices.Equal(h.Distance, w.Distance) {
			return fmt.Errorf("dependence %d is %v, fresh analysis %v", i, h, w)
		}
	}
	return nil
}
