// Package analysis is the whole-program static-analysis layer over the
// post-pipeline IR and integer-set facts.  It exploits the property the
// paper's machinery establishes — computation partitions and
// communication sets are closed-form integer sets — to answer questions
// about a compiled program without executing it:
//
//   - Symbolic loop summaries (summary.go): per (procedure, phase,
//     loop nest) closed-form trip counts, flop counts, per-array
//     read/write footprints and per-rank communication volume,
//     parameterized by program parameters and the processor grid.
//   - Distributed-array dataflow (dataflow.go): use-def/liveness over
//     phases, yielding diagnostics for reads of never-defined
//     distributed data, dead stores, dead communication and redundant
//     write-backs.  Diagnostics reuse the verify package's Diagnostic
//     type so every surface renders compiler findings uniformly.
//   - A static cost oracle (predict.go): Predict runs the rank
//     schedule's walker (internal/sched) with counting ops and returns
//     flop and traffic counters that agree exactly — integer for
//     integer — with what the virtual machines measure.  DryRun
//     (dryrun.go) runs the same counting walk on the machines
//     themselves, which adds their clocks: Execute's, bit for bit.
//
// The package deliberately imports only the fact layers (ir, iset, cp,
// comm, hpf, verify, sched) and the machines (mpsim, shm); the pipeline
// and the executors sit above it.
package analysis

import (
	"fmt"
	"sort"
	"sync"

	"dhpf/internal/comm"
	"dhpf/internal/cp"
	"dhpf/internal/hpf"
	"dhpf/internal/ir"
	"dhpf/internal/iset"
	"dhpf/internal/verify"
)

// Diagnostic check names contributed by the dataflow layer.  They live
// in the same namespace as the verify theorems and surface through the
// same report machinery.
const (
	CheckReadBeforeDef = "readbeforedef" // distributed read with no covering prior definition
	CheckDeadStore     = "deadstore"     // store overwritten before any intervening read
	CheckDeadComm      = "deadcomm"      // communication whose transferred section is never read
	CheckRedundantWB   = "redundantwb"   // write-back a sound eliminator would have removed
)

// Input carries the post-pipeline facts the analyses read.  It mirrors
// verify.Input so both passes are fed from the same compile context.
type Input struct {
	IR   *ir.Program
	Ctx  *cp.Context
	Sel  *cp.Selection
	Comm map[string]*comm.Analysis
	// Grid is the processor grid; when nil it is derived from Ctx.
	Grid *hpf.Grid

	// memoMu guards the whole-program memos below.  Phase footprints
	// and procedure interfaces depend only on the IR and the bound
	// parameters — both fixed for the lifetime of an Input — so they
	// are computed once and shared across the per-procedure RunProc
	// calls, which the incremental scheduler runs in parallel.
	memoMu sync.Mutex
	phIO   map[string][]phaseIO
	ifaces map[string]*procIO
}

func (in *Input) grid() (*hpf.Grid, error) {
	if in.Grid != nil {
		return in.Grid, nil
	}
	return in.Ctx.Grid()
}

// ProcIface is the persistable form of a procedure's interface
// footprint: upward-exposed reads and total writes per formal array.
// The sets live in the array's data space and carry no statement IDs,
// so cached interfaces survive recompiles untouched.
type ProcIface struct {
	Reads  map[string]iset.Set
	Writes map[string]iset.Set
}

// Interface returns the procedure's interface footprints, computing
// and memoizing them if needed.  The pipeline persists them alongside
// the procedure's analysis artifact.
func (in *Input) Interface(proc *ir.Procedure) ProcIface {
	in.memoMu.Lock()
	defer in.memoMu.Unlock()
	io := in.ifaceLocked(proc)
	return ProcIface{Reads: io.reads, Writes: io.writes}
}

// SeedInterface pre-populates the interface memo from a cached
// artifact, so analyzing a dirty caller does not recompute the phase
// footprints of its clean callees.  A seed never overrides an
// interface already computed from the current IR.
func (in *Input) SeedInterface(name string, f ProcIface) {
	in.memoMu.Lock()
	defer in.memoMu.Unlock()
	if _, ok := in.ifaces[name]; ok {
		return
	}
	if in.ifaces == nil {
		in.ifaces = map[string]*procIO{}
	}
	reads, writes := f.Reads, f.Writes
	if reads == nil {
		reads = map[string]iset.Set{}
	}
	if writes == nil {
		writes = map[string]iset.Set{}
	}
	in.ifaces[name] = &procIO{reads: reads, writes: writes}
}

// Result is the outcome of the static analysis: one summary per
// procedure plus the dataflow diagnostics, in deterministic order.
type Result struct {
	Procs       []ProcSummary       `json:"procs"`
	Diagnostics []verify.Diagnostic `json:"diagnostics,omitempty"`
}

// Run performs the summary and dataflow layers for the whole program.
// It is deterministic: procedures in program order, phases in statement
// order, diagnostics sorted like verify's.
func Run(in *Input) (*Result, error) {
	res := &Result{}
	for _, proc := range in.IR.Procs {
		frag, err := RunProc(in, proc)
		if err != nil {
			return nil, err
		}
		Merge(res, frag)
	}
	return res, nil
}

// RunProc analyzes a single procedure and returns its fragment of the
// result.  Fragments merged in procedure order equal a whole-program
// Run, which is what lets the incremental scheduler cache them per
// procedure.
func RunProc(in *Input, proc *ir.Procedure) (*Result, error) {
	grid, err := in.grid()
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	res := &Result{}
	phases := in.procPhases(proc)
	ps, err := summarizeProc(in, grid, proc, phases)
	if err != nil {
		return nil, err
	}
	res.Procs = append(res.Procs, *ps)
	diags := dataflowProc(in, grid, proc, phases)
	sortDiagnostics(diags)
	res.Diagnostics = append(res.Diagnostics, diags...)
	return res, nil
}

// Merge appends a per-procedure fragment to an accumulating result.
func Merge(dst, frag *Result) {
	dst.Procs = append(dst.Procs, frag.Procs...)
	dst.Diagnostics = append(dst.Diagnostics, frag.Diagnostics...)
}

func sortDiagnostics(ds []verify.Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Stmt != b.Stmt {
			return a.Stmt < b.Stmt
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Why < b.Why
	})
}

// Errors counts error-severity diagnostics.
func (r *Result) Errors() int {
	n := 0
	for _, d := range r.Diagnostics {
		if d.Severity == verify.Error {
			n++
		}
	}
	return n
}

// Warnings counts warning-severity diagnostics.
func (r *Result) Warnings() int {
	n := 0
	for _, d := range r.Diagnostics {
		if d.Severity == verify.Warning {
			n++
		}
	}
	return n
}

// Clean reports whether no error-severity diagnostics were produced.
func (r *Result) Clean() bool { return r.Errors() == 0 }

// Summary renders a one-line digest.
func (r *Result) Summary() string {
	phases := 0
	for _, p := range r.Procs {
		phases += len(p.Phases)
	}
	return fmt.Sprintf("analyze: %d procs, %d phases, %d errors, %d warnings",
		len(r.Procs), phases, r.Errors(), r.Warnings())
}
