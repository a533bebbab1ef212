package analysis

import (
	"fmt"
	"sort"
	"strings"

	"dhpf/internal/comm"
	"dhpf/internal/cp"
	"dhpf/internal/hpf"
	"dhpf/internal/ir"
	"dhpf/internal/iset"
)

// ProcSummary holds the symbolic summaries of one procedure's phases.
// A phase is one top-level statement — the granularity at which the
// paper's communication placement and the dataflow lattice operate.
type ProcSummary struct {
	Proc   string         `json:"proc"`
	Phases []PhaseSummary `json:"phases"`
}

// PhaseSummary is one phase's closed-form account: its loop nests with
// symbolic trip counts, total flops, per-array read/write footprints,
// and the communication volume its events move, per rank.
type PhaseSummary struct {
	Index int    `json:"index"`
	Stmt  int    `json:"stmt"`
	Kind  string `json:"kind"` // "loop", "assign", "call" or "if"

	Loops  []LoopSummary `json:"loops,omitempty"`
	Flops  float64       `json:"flops"` // executed instances × per-instance cost, summed over ranks
	Reads  []Footprint   `json:"reads,omitempty"`
	Writes []Footprint   `json:"writes,omitempty"`

	CommEvents  int     `json:"comm_events,omitempty"`
	CommElems   int64   `json:"comm_elems,omitempty"`
	PerRankComm []int64 `json:"per_rank_comm,omitempty"` // elements sent per rank, vectorized
}

// LoopSummary is one loop's symbolic bounds and trip count.
type LoopSummary struct {
	Stmt   int    `json:"stmt"`
	Var    string `json:"var"`
	Bounds string `json:"bounds"` // "lo : hi" in program parameters
	Trip   string `json:"trip"`   // closed-form trip count
	Points int64  `json:"points"` // trip count under the bound parameters
}

// Footprint is the section of one array a phase reads or writes.
type Footprint struct {
	Array string `json:"array"`
	Set   string `json:"set"` // rendered iset
	Elems int64  `json:"elems"`
}

// summarizeProc builds the per-phase symbolic summaries of a procedure
// under the program's bound parameters.  Footprints come from the shared
// phase IO (which also resolves calls through callee interfaces);
// iteration and non-local sets from the context's derived-set table.
func summarizeProc(in *Input, grid *hpf.Grid, proc *ir.Procedure, phases []phaseIO) (*ProcSummary, error) {
	ps := &ProcSummary{Proc: proc.Name}
	bind := in.Ctx.Bind.Params
	for idx, s := range proc.Body {
		ph := PhaseSummary{Index: idx, Stmt: s.StmtID(), Kind: stmtKind(s)}

		ir.Walk([]ir.Stmt{s}, func(st ir.Stmt, loops []*ir.Loop) bool {
			switch x := st.(type) {
			case *ir.Loop:
				lo, hi := x.Lo, x.Hi
				if x.Step < 0 {
					lo, hi = hi, lo
				}
				trip := hi.Sub(lo).AddConst(1)
				pts := int64(trip.EvalOr(bind, 0))
				if pts < 0 {
					pts = 0
				}
				ph.Loops = append(ph.Loops, LoopSummary{
					Stmt:   x.ID,
					Var:    x.Var,
					Bounds: fmt.Sprintf("%s : %s", x.Lo.String(), x.Hi.String()),
					Trip:   trip.String(),
					Points: pts,
				})
			case *ir.Assign:
				ph.Flops += FlopsOf(x) * float64(executedInstances(in, grid, proc, x.ID, loops))
			}
			return true
		})
		ph.Reads = footprints(phases[idx].reads)
		ph.Writes = footprints(phases[idx].writes)

		// Communication: every live event anchored anywhere inside the
		// phase, priced by its fully-vectorized transfer plan.
		if an := in.Comm[proc.Name]; an != nil {
			ids := stmtIDs(s)
			perRank := make([]int64, grid.Size())
			for _, e := range an.Events {
				if e.Eliminated || !ids[e.Stmt.ID] {
					continue
				}
				ph.CommEvents++
				layout := in.Ctx.Layout(proc, e.Ref.Name)
				if layout == nil {
					continue
				}
				c := in.Sel.CPOf(e.Stmt.ID)
				for t := 0; t < grid.Size(); t++ {
					nl := in.Ctx.NonLocal(proc, e.Stmt.ID, c, e.Nest, e.Ref, t)
					if nl.IsEmpty() {
						continue
					}
					for peer := 0; peer < grid.Size(); peer++ {
						if peer == t {
							continue
						}
						part := nl.IntersectBox(layout.LocalBox(peer))
						if part.IsEmpty() {
							continue
						}
						n := part.Card()
						ph.CommElems += n
						if e.Kind == comm.ReadComm {
							perRank[peer] += n // peer sends to t
						} else {
							perRank[t] += n // t writes back to peer
						}
					}
				}
			}
			if ph.CommEvents > 0 {
				ph.PerRankComm = perRank
			}
		}
		ps.Phases = append(ps.Phases, ph)
	}
	return ps, nil
}

// executedInstances counts, across all ranks, how many instances of the
// statement execute per phase execution — the iteration-set cardinality
// summed over the grid (replicated boundary work counts once per
// executing rank, matching what the machines charge).
func executedInstances(in *Input, grid *hpf.Grid, proc *ir.Procedure, id int, nest []*ir.Loop) int64 {
	var total int64
	c := in.Sel.CPOf(id)
	for r := 0; r < grid.Size(); r++ {
		total += in.Ctx.IterSet(proc, id, c, nest, r).Card()
	}
	return total
}

func addFootprint(acc map[string]iset.Set, ref *ir.ArrayRef, vars []string, ibox iset.Box, bind map[string]int) {
	if ref == nil || len(ref.Subs) == 0 {
		return
	}
	data := cp.RefDataSet(ref, vars, iset.FromBox(ibox), bind)
	if cur, ok := acc[ref.Name]; ok {
		acc[ref.Name] = cur.Union(data)
	} else {
		acc[ref.Name] = data
	}
}

func footprints(m map[string]iset.Set) []Footprint {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]Footprint, 0, len(names))
	for _, n := range names {
		out = append(out, Footprint{Array: n, Set: m[n].String(), Elems: m[n].Card()})
	}
	return out
}

func stmtKind(s ir.Stmt) string {
	switch s.(type) {
	case *ir.Loop:
		return "loop"
	case *ir.Assign:
		return "assign"
	case *ir.CallStmt:
		return "call"
	case *ir.IfStmt:
		return "if"
	}
	return "stmt"
}

// stmtIDs collects every statement ID inside a phase subtree.
func stmtIDs(s ir.Stmt) map[int]bool {
	ids := map[int]bool{}
	ir.Walk([]ir.Stmt{s}, func(st ir.Stmt, _ []*ir.Loop) bool {
		ids[st.StmtID()] = true
		return true
	})
	return ids
}

// Text renders the whole result in the stable human-readable form the
// golden summary files pin: procedures in program order, phases in
// statement order, arrays sorted.
func (r *Result) Text() string {
	var b strings.Builder
	for _, p := range r.Procs {
		fmt.Fprintf(&b, "proc %s\n", p.Proc)
		for _, ph := range p.Phases {
			fmt.Fprintf(&b, "  phase %d  stmt %d  %s\n", ph.Index, ph.Stmt, ph.Kind)
			for _, l := range ph.Loops {
				fmt.Fprintf(&b, "    loop %s = %s  trip %s (%d)\n", l.Var, l.Bounds, l.Trip, l.Points)
			}
			if ph.Flops > 0 {
				fmt.Fprintf(&b, "    flops %.0f\n", ph.Flops)
			}
			for _, f := range ph.Writes {
				fmt.Fprintf(&b, "    writes %s %s (%d)\n", f.Array, f.Set, f.Elems)
			}
			for _, f := range ph.Reads {
				fmt.Fprintf(&b, "    reads  %s %s (%d)\n", f.Array, f.Set, f.Elems)
			}
			if ph.CommEvents > 0 {
				fmt.Fprintf(&b, "    comm   %d events, %d elems, per-rank %v\n",
					ph.CommEvents, ph.CommElems, ph.PerRankComm)
			}
		}
	}
	for _, d := range r.Diagnostics {
		fmt.Fprintf(&b, "%s\n", d.String())
	}
	return b.String()
}
