package analysis

import (
	"fmt"
	"sort"

	"dhpf/internal/comm"
	"dhpf/internal/cp"
	"dhpf/internal/hpf"
	"dhpf/internal/ir"
	"dhpf/internal/iset"
	"dhpf/internal/verify"
)

// dataflow.go is the distributed-array use-def layer.  The lattice is
// deliberately coarse — per phase (top-level statement), per array, an
// iset of defined elements — because that is the granularity at which
// the pipeline places communication, and it keeps every transfer
// attributable to a phase boundary.  Within a phase, reads may consume
// values the same nest produced in earlier iterations (loop-carried
// flow), so a phase's own writes always count as definitions for its
// reads; the checks are therefore sound for reporting (no false ERROR
// on a legal program) rather than complete.
//
// Checks:
//
//	readbeforedef — an element of a distributed array is read by a
//	    phase although no earlier phase (nor the phase itself, nor a
//	    formal binding) defines it.  ERROR: the executed program reads
//	    unset storage.
//	deadstore — a phase's write is entirely overwritten by a later
//	    phase with no intervening (or overwriting-phase) read.  WARN.
//	deadcomm — a live read-communication event transfers elements the
//	    anchored statement never reads.  WARN: the plan moves dead data.
//	redundantwb — a live write-back event that the redundancy
//	    eliminator proves unnecessary.  WARN (appears when the wbelim
//	    pass is ablated or miswired).
type phaseIO struct {
	stmt   int
	reads  map[string]iset.Set
	writes map[string]iset.Set
}

// dataflowProc runs the dataflow checks for one procedure over the phase
// footprints shared with the summary layer.
func dataflowProc(in *Input, grid *hpf.Grid, proc *ir.Procedure, phases []phaseIO) []verify.Diagnostic {
	var diags []verify.Diagnostic

	// Formal arrays are defined by the caller; everything else starts
	// undefined.
	defined := map[string]iset.Set{}
	formal := map[string]bool{}
	for _, f := range proc.Formals {
		formal[f] = true
	}
	for _, d := range proc.Decls {
		if d.Rank() == 0 || !formal[d.Name] {
			continue
		}
		defined[d.Name] = iset.FromBox(declBox(d, in.Ctx.Bind.Params))
	}

	// readbeforedef: forward scan.
	for _, ph := range phases {
		for _, name := range sortFootprintNames(ph.reads) {
			missing := ph.reads[name]
			if w, ok := ph.writes[name]; ok {
				missing = missing.Subtract(w)
			}
			if def, ok := defined[name]; ok {
				missing = missing.Subtract(def)
			}
			if !missing.IsEmpty() {
				diags = append(diags, verify.Diagnostic{
					Check:    CheckReadBeforeDef,
					Severity: verify.Error,
					Proc:     proc.Name,
					Stmt:     ph.stmt,
					Ref:      name,
					Set:      missing.String(),
					Why:      fmt.Sprintf("reads %d element(s) of %s no earlier phase defines", missing.Card(), name),
				})
			}
		}
		for name, w := range ph.writes {
			if def, ok := defined[name]; ok {
				defined[name] = def.Union(w)
			} else {
				defined[name] = w
			}
		}
	}

	// deadstore: every write looks for a later covering write with no
	// intervening read of the overwritten section.
	for i, ph := range phases {
		for _, name := range sortFootprintNames(ph.writes) {
			w := ph.writes[name]
			live := false
			dead := false
			for j := i + 1; j < len(phases) && !live && !dead; j++ {
				if r, ok := phases[j].reads[name]; ok && !r.Intersect(w).IsEmpty() {
					live = true
					break
				}
				if w2, ok := phases[j].writes[name]; ok && w.SubsetOf(w2) {
					dead = true
					diags = append(diags, verify.Diagnostic{
						Check:    CheckDeadStore,
						Severity: verify.Warning,
						Proc:     proc.Name,
						Stmt:     ph.stmt,
						Ref:      name,
						Set:      w.String(),
						Why: fmt.Sprintf("store to %s is overwritten by stmt %d before any read",
							name, phases[j].stmt),
					})
				}
			}
		}
	}

	diags = append(diags, deadCommDiags(in, grid, proc)...)
	diags = append(diags, redundantWBDiags(in, proc)...)
	return diags
}

// procPhases returns the memoized phase footprints of a procedure:
// each top-level statement's read and write footprints under the bound
// parameters, with calls contributing their callee's interface
// translated through the formal/actual aliasing.
func (in *Input) procPhases(proc *ir.Procedure) []phaseIO {
	in.memoMu.Lock()
	defer in.memoMu.Unlock()
	return in.phasesLocked(proc)
}

func (in *Input) phasesLocked(proc *ir.Procedure) []phaseIO {
	if ph, ok := in.phIO[proc.Name]; ok {
		return ph
	}
	bind := in.Ctx.Bind.Params
	out := make([]phaseIO, 0, len(proc.Body))
	for _, s := range proc.Body {
		ph := phaseIO{stmt: s.StmtID(), reads: map[string]iset.Set{}, writes: map[string]iset.Set{}}
		in.collectIOLocked(s, bind, ph.reads, ph.writes)
		out = append(out, ph)
	}
	if in.phIO == nil {
		in.phIO = map[string][]phaseIO{}
	}
	in.phIO[proc.Name] = out
	return out
}

// procIO is a procedure's interface footprint per formal array:
// upward-exposed reads (not covered by the callee's own earlier writes)
// and total writes.
type procIO struct {
	reads  map[string]iset.Set
	writes map[string]iset.Set
}

// ifaceLocked derives a procedure's interface from its memoized phase
// footprints.  Callers hold in.memoMu.
func (in *Input) ifaceLocked(proc *ir.Procedure) *procIO {
	if io, ok := in.ifaces[proc.Name]; ok {
		return io
	}
	// Mark in-progress to break (illegal, parser-rejected) cycles.
	io := &procIO{reads: map[string]iset.Set{}, writes: map[string]iset.Set{}}
	if in.ifaces == nil {
		in.ifaces = map[string]*procIO{}
	}
	in.ifaces[proc.Name] = io
	formal := map[string]bool{}
	for _, f := range proc.Formals {
		formal[f] = true
	}
	defined := map[string]iset.Set{}
	for _, ph := range in.phasesLocked(proc) {
		for name, r := range ph.reads {
			if !formal[name] {
				continue
			}
			exposed := r
			if w, ok := ph.writes[name]; ok {
				exposed = exposed.Subtract(w)
			}
			if def, ok := defined[name]; ok {
				exposed = exposed.Subtract(def)
			}
			if exposed.IsEmpty() {
				continue
			}
			if cur, ok := io.reads[name]; ok {
				io.reads[name] = cur.Union(exposed)
			} else {
				io.reads[name] = exposed
			}
		}
		for name, w := range ph.writes {
			if def, ok := defined[name]; ok {
				defined[name] = def.Union(w)
			} else {
				defined[name] = w
			}
			if !formal[name] {
				continue
			}
			if cur, ok := io.writes[name]; ok {
				io.writes[name] = cur.Union(w)
			} else {
				io.writes[name] = w
			}
		}
	}
	return io
}

// collectIOLocked accumulates the read/write footprints of one
// statement subtree into the maps, resolving calls through procedure
// interfaces.  Callers hold in.memoMu.
func (in *Input) collectIOLocked(s ir.Stmt, bind map[string]int, reads, writes map[string]iset.Set) {
	ir.Walk([]ir.Stmt{s}, func(st ir.Stmt, loops []*ir.Loop) bool {
		switch x := st.(type) {
		case *ir.Assign:
			vars := ir.NestVars(loops)
			ibox := cp.IterBox(loops, bind)
			addFootprint(writes, x.LHS, vars, ibox, bind)
			ir.WalkExpr(x.RHS, func(e ir.Expr) {
				if r, ok := e.(*ir.ArrayRef); ok {
					addFootprint(reads, r, vars, ibox, bind)
				}
			})
		case *ir.CallStmt:
			callee := in.IR.Proc(x.Callee)
			if callee == nil {
				return true
			}
			io := in.ifaceLocked(callee)
			for k, formalName := range callee.Formals {
				if k >= len(x.Args) {
					break
				}
				arg, ok := x.Args[k].(*ir.ArrayRef)
				if !ok || len(arg.Subs) != 0 {
					continue
				}
				// Aliased whole-array actual: the callee's interface
				// footprints apply verbatim (same geometry).
				if r, ok := io.reads[formalName]; ok {
					if cur, ok := reads[arg.Name]; ok {
						reads[arg.Name] = cur.Union(r)
					} else {
						reads[arg.Name] = r
					}
				}
				if w, ok := io.writes[formalName]; ok {
					if cur, ok := writes[arg.Name]; ok {
						writes[arg.Name] = cur.Union(w)
					} else {
						writes[arg.Name] = w
					}
				}
			}
		}
		return true
	})
}

func declBox(d *ir.Decl, bind map[string]int) iset.Box {
	lo := make([]int, d.Rank())
	hi := make([]int, d.Rank())
	for k := range d.LB {
		lo[k] = d.LB[k].EvalOr(bind, 0)
		hi[k] = d.UB[k].EvalOr(bind, 0)
	}
	return iset.Box{Lo: lo, Hi: hi}
}

// deadCommDiags flags live read-communication events that move
// elements the anchored statement's references never read: the
// transferred non-local section must be covered by the union of the
// statement's own reads of that array.
func deadCommDiags(in *Input, grid *hpf.Grid, proc *ir.Procedure) []verify.Diagnostic {
	an := in.Comm[proc.Name]
	if an == nil {
		return nil
	}
	var diags []verify.Diagnostic
	for _, e := range an.Events {
		if e.Kind != comm.ReadComm || e.Eliminated {
			continue
		}
		layout := in.Ctx.Layout(proc, e.Ref.Name)
		if layout == nil {
			continue
		}
		c := in.Sel.CPOf(e.Stmt.ID)
		var refs []*ir.ArrayRef
		ir.WalkExpr(e.Stmt.RHS, func(x ir.Expr) {
			if r, ok := x.(*ir.ArrayRef); ok && r.Name == e.Ref.Name {
				refs = append(refs, r)
			}
		})
		dead := iset.EmptySet(len(e.Ref.Subs))
		for t := 0; t < grid.Size(); t++ {
			moved := in.Ctx.NonLocal(proc, e.Stmt.ID, c, e.Nest, e.Ref, t)
			if moved.IsEmpty() {
				continue
			}
			needed := iset.EmptySet(len(e.Ref.Subs))
			for _, r := range refs {
				needed = needed.Union(in.Ctx.NonLocal(proc, e.Stmt.ID, c, e.Nest, r, t))
			}
			dead = dead.Union(moved.Subtract(needed))
		}
		if !dead.IsEmpty() {
			diags = append(diags, verify.Diagnostic{
				Check:    CheckDeadComm,
				Severity: verify.Warning,
				Proc:     proc.Name,
				Stmt:     e.Stmt.ID,
				Ref:      e.Ref.String(),
				Set:      dead.String(),
				Why: fmt.Sprintf("communication for %s moves %d element(s) the statement never reads",
					e.Ref.Name, dead.Card()),
			})
		}
	}
	return diags
}

// redundantWBDiags re-derives write-back redundancy on a copy of the
// live events: anything the eliminator would remove but the plan still
// carries is flagged (the wbelim pass was ablated or missed it).
func redundantWBDiags(in *Input, proc *ir.Procedure) []verify.Diagnostic {
	an := in.Comm[proc.Name]
	if an == nil {
		return nil
	}
	var clones []*comm.Event
	var originals []*comm.Event
	for _, e := range an.Events {
		if e.Kind != comm.WriteBack || e.Eliminated {
			continue
		}
		cp := *e
		clones = append(clones, &cp)
		originals = append(originals, e)
	}
	if len(clones) == 0 {
		return nil
	}
	shadow := comm.Restore(proc, clones, nil)
	comm.ApplyWritebackElim(in.Ctx, in.Sel, shadow)
	var diags []verify.Diagnostic
	for i, cl := range clones {
		if !cl.Eliminated {
			continue
		}
		e := originals[i]
		diags = append(diags, verify.Diagnostic{
			Check:    CheckRedundantWB,
			Severity: verify.Warning,
			Proc:     proc.Name,
			Stmt:     e.Stmt.ID,
			Ref:      e.Ref.String(),
			Why:      "write-back is provably redundant; the eliminator pass would remove it",
		})
	}
	return diags
}

// sortFootprintNames is a tiny helper kept for deterministic iteration
// over footprint maps in diagnostics-producing code.
func sortFootprintNames(m map[string]iset.Set) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
