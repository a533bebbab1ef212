// Package sched owns the one compile-time decision every consumer of a
// compiled program derives node behaviour from: where communication is
// placed (§7), how it is vectorized and coalesced, and how a wavefront is
// strip-mined (§2, §8.1).  A Schedule is built once per program from the
// IR, the CP selection, the communication events, the reduction loops and
// the pipeline grain; every execution engine and analysis.Predict are
// folds over it through the Walker (walk.go) — the compiled engines being
// the reference interpreter's fold with the compute nests it marks
// claimed through Ops.Handled — and the report and node-program printers
// call its planner (plan.go) at the zero point.  The walker evaluates a
// firing from its closed form (form.go), or, for a firing whose form is
// general, calls the planner at the firing's point.
package sched

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"dhpf/internal/comm"
	"dhpf/internal/cp"
	"dhpf/internal/hpf"
	"dhpf/internal/ir"
	"dhpf/internal/iset"
)

// Reduction is one recognized parallel reduction: every rank accumulates
// a partial over its iterations of Loop, finalized by a collective
// combine at the loop's exit.
type Reduction struct {
	Loop *ir.Loop
	Stmt *ir.Assign
	Var  string
	Op   byte // '+', '<' (min), '>' (max)
}

// Input is what a schedule is built from.
type Input struct {
	IR         *ir.Program
	Ctx        *cp.Context
	Sel        *cp.Selection
	Comm       map[string]*comm.Analysis // per procedure; a missing entry places nothing
	Reductions map[string][]Reduction    // per procedure
	Grid       *hpf.Grid
	Grain      int // pipeline strip width; ≤ 0 means the whole strip range
}

// LoopSched is what fires at one loop's boundary, in firing order: Reads,
// reduction init, the loop itself (a wavefront carrying Pipe when that is
// non-empty), reduction combine, Writes.
type LoopSched struct {
	Reads, Writes Firing
	// Pipe are the live pipelined events the loop carries; Strip is the
	// loop their wavefront is strip-mined over (nil: block-serialized).
	Pipe  Firing
	Strip *ir.Loop
	Reds  []Reduction
	// ComputeNest marks a loop whose strict interior needs no walker: no
	// loop below it has events, a pipeline or a reduction at its boundary
	// and no statement below it is a call.  Whatever fires at the loop's
	// own boundary fires outside its iteration, so a consumer may run the
	// whole range in one step (Ops.Handled) with its own representation.
	ComputeNest bool

	// The loop, its variable and bounds in slot form, and the strip
	// loop's placement (slots.go).
	loop   *ir.Loop
	slot   int
	lo, hi slotAff
	strip  *LoopSched
}

// StmtSched is the communication around one top-level assignment.
type StmtSched struct {
	Reads, Writes Firing
}

// ProcSched is one procedure's placement tables.  Every loop has a
// LoopSched (Loop), every assignment outside all loops a StmtSched, and
// every assignment or call an entry in Nest.
type ProcSched struct {
	id int // position in the program
	// loops holds the program's LoopScheds by loop statement id, shared by
	// every procedure; own lists this procedure's, in program order.
	loops []*LoopSched
	own   []*LoopSched
	Top   map[*ir.Assign]*StmtSched
	Nest  map[int][]*ir.Loop // enclosing loops per statement id, outermost first
	// Arrays are the names of the arrays the procedure's firings move,
	// sorted: a Transfer's Slot indexes them.
	Arrays  []string
	formals []int // each formal's slot, -1 for one no call binds an integer
}

// Loop returns loop l's placement: l is a loop of the procedure.
func (ps *ProcSched) Loop(l *ir.Loop) *LoopSched { return ps.loops[l.ID] }

// Schedule is the per-program rank schedule, shared read-only by every
// rank of every execution and analysis, except for its firings' closed
// forms (form.go), each published once by the first walk that derives it.
type Schedule struct {
	Planner

	prog    *ir.Program
	grain   int
	procs   map[*ir.Procedure]*ProcSched
	invalid error

	// names are the program's scalar names — everything a walker ever
	// binds — sorted: a name's slot is its index here.
	names   []string
	params  binding // the parameter binding, what a walk starts from
	fixed   []bool  // per slot: a parameter no walk rebinds
	deepest int     // the most loops around any statement
	firings int

	// What membership reads, by statement id: the variables of each
	// statement's nest (slots.go).
	nestSlots [][]int

	// forms holds each firing's closed form by id, nil until a walk
	// derives it; checking makes every walk compare its plans with Plan's
	// (CheckForms), checked counts the firings compared, and induced and
	// crossed those induced and crossing an edge (Inductions).
	forms                     []atomic.Pointer[form]
	checking                  atomic.Bool
	checked, induced, crossed atomic.Int64
}

// New builds the schedule.  It is total: a program the walker cannot run
// (no main procedure, a call that does not resolve) still gets its
// placement tables and planner, and Check reports why it cannot be walked.
func New(in Input) *Schedule {
	s := &Schedule{
		Planner: Planner{Ctx: in.Ctx, Sel: in.Sel, Grid: in.Grid},
		prog:    in.IR,
		grain:   in.Grain,
		procs:   map[*ir.Procedure]*ProcSched{},
	}
	if in.IR.Main() == nil {
		s.invalid = fmt.Errorf("program has no main procedure")
	}
	loops := make([]*LoopSched, in.IR.MaxStmtID())
	for i, proc := range in.IR.Procs {
		ps := s.buildProc(proc, loops, in.Comm[proc.Name], in.Reductions[proc.Name])
		ps.id = i
		s.procs[proc] = ps
		for _, nest := range ps.Nest {
			s.deepest = max(s.deepest, len(nest))
		}
	}
	s.names = scalarNames(in.IR, in.Ctx.Bind.Params)
	s.number(in.Ctx.Bind.Params)
	s.forms = make([]atomic.Pointer[form], s.firings)
	return s
}

// scalarNames collects every name a walker binds: the parameters, every
// loop variable and every formal some call passes an integer actual to.
func scalarNames(prog *ir.Program, params map[string]int) []string {
	set := map[string]bool{}
	for name := range params {
		set[name] = true
	}
	for _, proc := range prog.Procs {
		ir.Walk(proc.Body, func(st ir.Stmt, _ []*ir.Loop) bool {
			switch x := st.(type) {
			case *ir.Loop:
				set[x.Var] = true
			case *ir.CallStmt:
				if callee := prog.Proc(x.Callee); callee != nil {
					for k, arg := range x.Args {
						if k < len(callee.Formals) && ClassifyArg(arg) == ArgInt {
							set[callee.Formals[k]] = true
						}
					}
				}
			}
			return true
		})
	}
	names := make([]string, 0, len(set))
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// firing returns the next placed event list of proc, still empty.
func (s *Schedule) firing(proc *ir.Procedure) Firing {
	s.firings++
	return Firing{ID: s.firings - 1, Proc: proc}
}

// Check reports why the program cannot be walked, or nil.
func (s *Schedule) Check() error { return s.invalid }

// NumProcs is the number of procedures in the program.
func (s *Schedule) NumProcs() int { return len(s.prog.Procs) }

// Index is the procedure's position in the program, below NumProcs.
func (ps *ProcSched) Index() int { return ps.id }

// Proc returns a procedure's placement tables.
func (s *Schedule) Proc(proc *ir.Procedure) *ProcSched { return s.procs[proc] }

func (s *Schedule) buildProc(proc *ir.Procedure, byID []*LoopSched, an *comm.Analysis, reds []Reduction) *ProcSched {
	ps := &ProcSched{
		loops: byID,
		Top:   map[*ir.Assign]*StmtSched{},
		Nest:  map[int][]*ir.Loop{},
	}
	ir.Walk(proc.Body, func(st ir.Stmt, loops []*ir.Loop) bool {
		switch x := st.(type) {
		case *ir.Assign:
			if len(loops) == 0 {
				ps.Top[x] = &StmtSched{Reads: s.firing(proc), Writes: s.firing(proc)}
			}
		case *ir.CallStmt:
			if s.invalid == nil {
				s.invalid = s.checkCall(x)
			}
		case *ir.Loop:
			ls := &LoopSched{Reads: s.firing(proc), Writes: s.firing(proc), Pipe: s.firing(proc), loop: x}
			byID[x.ID], ps.own = ls, append(ps.own, ls)
			return true
		default:
			return true
		}
		ps.Nest[st.StmtID()] = append([]*ir.Loop(nil), loops...)
		return true
	})
	for _, r := range reds {
		if ls := ps.find(r.Loop); ls != nil {
			ls.Reds = append(ls.Reds, r)
		}
	}
	var events []*comm.Event
	if an != nil {
		events = an.Events
	}
	for _, e := range events {
		switch {
		case e.Eliminated:
			continue
		case e.Pipelined:
			if ls := ps.find(e.CarriedBy); ls != nil {
				ls.Pipe.Events = append(ls.Pipe.Events, e)
			}
		case len(e.Nest) == 0:
			if ss := ps.Top[e.Stmt]; ss != nil {
				place(e, &ss.Reads, &ss.Writes)
			}
		default:
			// The event executes inside Nest[0:Depth] and is vectorized
			// across the rest: it fires at the boundary of Nest[d].
			d := min(e.Depth, len(e.Nest)-1)
			if ls := ps.find(e.Nest[d]); ls != nil {
				place(e, &ls.Reads, &ls.Writes)
			}
		}
		if !slices.Contains(ps.Arrays, e.Ref.Name) {
			ps.Arrays = append(ps.Arrays, e.Ref.Name)
		}
	}
	slices.Sort(ps.Arrays)
	for _, ls := range ps.own {
		ls.Strip = chooseStrip(ls.loop, ls.Pipe.Events, s.grain)
	}
	ps.markNests(proc.Body)
	return ps
}

// find returns loop l's placement when l is a loop of the procedure, else
// nil.
func (ps *ProcSched) find(l *ir.Loop) *LoopSched {
	if l != nil && ps.loops[l.ID] != nil && ps.loops[l.ID].loop == l {
		return ps.loops[l.ID]
	}
	return nil
}

// markNests sets ComputeNest on every loop under stmts and reports
// whether they hold a call or a loop with something at its boundary.
func (ps *ProcSched) markNests(stmts []ir.Stmt) bool {
	busy := false
	for _, s := range stmts {
		switch st := s.(type) {
		case *ir.CallStmt:
			busy = true
		case *ir.IfStmt:
			then, els := ps.markNests(st.Then), ps.markNests(st.Else)
			busy = busy || then || els
		case *ir.Loop:
			ls := ps.Loop(st)
			ls.ComputeNest = !ps.markNests(st.Body)
			busy = busy || !ls.ComputeNest || len(ls.Reads.Events)+len(ls.Writes.Events)+len(ls.Pipe.Events)+len(ls.Reds) > 0
		}
	}
	return busy
}

func (s *Schedule) checkCall(c *ir.CallStmt) error {
	callee := s.prog.Proc(c.Callee)
	if callee == nil {
		return fmt.Errorf("call to unknown procedure %q", c.Callee)
	}
	if len(c.Args) != len(callee.Formals) {
		return fmt.Errorf("call to %q has %d args for %d formals", c.Callee, len(c.Args), len(callee.Formals))
	}
	return nil
}

func place(e *comm.Event, reads, writes *Firing) {
	if e.Kind == comm.ReadComm {
		reads.Events = append(reads.Events, e)
	} else {
		writes.Events = append(writes.Events, e)
	}
}

// chooseStrip picks the strip-mining loop of a wavefront: the innermost
// loop enclosing the pipelined statements that is not the carrier itself
// — unless strips of the grain would split that loop, which is legal
// only for a loop carrying no dependence: then the strip is the one comm
// found (Event.Strip), where it found one.  A split loop whose window
// does not bound the rows an inner loop reads would let a strip
// republish rows the next strip overwrites.  This is strip legality
// (every strip window bounds the data its statements read) decided from
// the dependences, in its first instance.
func chooseStrip(l *ir.Loop, events []*comm.Event, grain int) *ir.Loop {
	for _, e := range events {
		for i := len(e.Nest) - 1; i >= 0; i-- {
			if e.Nest[i] != l {
				if pick := e.Nest[i]; e.Strip == nil || !splits(pick, grain) {
					return pick
				}
				return e.Strip
			}
		}
	}
	return nil
}

// splits reports whether strips of the grain cut loop l: its trip count
// is a constant above the grain.
func splits(l *ir.Loop, grain int) bool {
	d, ok := l.Hi.ConstDiff(l.Lo)
	return ok && grain > 0 && max(d, -d)+1 > grain
}

// reads returns the slots proc's iteration sets read that a walk can
// rebind: the formals, loop variables or parameters in its loop bounds
// and its statements' ON_HOME subscripts, other than a statement's own
// nest variables.  Two activations of proc on one rank that agree on
// these values have the same iteration sets.
func (s *Schedule) reads(proc *ir.Procedure) []int {
	var out []int
	add := func(name string) {
		if i := s.Slot(name); i >= 0 && !s.fixed[i] && !slices.Contains(out, i) {
			out = append(out, i)
		}
	}
	aff := func(a ir.AffExpr) {
		for _, t := range a.Terms {
			add(t.Name)
		}
	}
	for id, nest := range s.procs[proc].Nest {
		vars := ir.NestVars(nest)
		for _, l := range nest {
			aff(l.Lo)
			aff(l.Hi)
		}
		for _, t := range s.termsOf(id) {
			for _, h := range t.Subs {
				aff(h.Off)
				aff(h.Lo)
				aff(h.Hi)
				if !slices.Contains(vars, h.Var) {
					add(h.Var)
				}
			}
		}
	}
	return out
}

// iterSets computes one activation's iteration sets: for every
// assignment and call of proc, the points of its full nest rank executes
// under bind.
func (s *Schedule) iterSets(proc *ir.Procedure, rank int, bind map[string]int) map[int]iset.Set {
	nests := s.procs[proc].Nest
	localOf := s.Ctx.LocalOf(proc, rank)
	out := make(map[int]iset.Set, len(nests))
	for id, nest := range nests {
		out[id] = s.Sel.CPOf(id).IterSet(nest, bind, localOf)
	}
	return out
}
