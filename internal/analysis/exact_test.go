package analysis_test

// The exactness invariant: analysis.Predict must agree integer for
// integer (and bit for bit on flops) with what the virtual machines
// measure, on every affine program, under every pass ablation, on all
// three backends — and so must analysis.DryRun, which runs the same
// counting walk on the machine itself.  This is the static-analysis sibling of the
// "incremental ≡ cold" and "shm ≡ mp" invariants: the oracle is not a
// model of the executor, it *is* the executor minus the values.

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"dhpf/internal/ir"
	"dhpf/internal/mpsim"
	"dhpf/internal/nas"
	"dhpf/internal/passes"
	"dhpf/internal/spmd"
)

func exactMachine(p int) mpsim.Config {
	return mpsim.Config{
		Procs:        p,
		SendOverhead: 1e-6,
		RecvOverhead: 1e-6,
		Latency:      10e-6,
		GapPerByte:   1e-8,
		FlopTime:     1e-8,
	}
}

// requireExact compiles src for the backend, predicts, dry-runs,
// executes, and fails on any counter mismatch.
func requireExact(t *testing.T, src string, opt spmd.Options, backend string) {
	t.Helper()
	opt.Backend = backend
	prog, err := spmd.CompileSource(src, nil, opt)
	if err != nil {
		t.Fatalf("compile (backend %s): %v", backend, err)
	}
	cost, err := prog.PredictCost()
	if err != nil {
		t.Fatalf("predict: %v", err)
	}
	if !cost.Exact {
		t.Fatalf("predict degraded to inexact on an affine program")
	}
	dcost, dres, derr := prog.DryRun(exactMachine(prog.Grid.Size()))
	res, err := prog.Execute(exactMachine(prog.Grid.Size()))
	if errors.Is(err, mpsim.ErrDeadlock) {
		if derr == nil || derr.Error() != err.Error() {
			t.Fatalf("%v\ndry run: %v", err, derr)
		}
		// The machine cannot finish the run the prediction prices (ysolve
		// without availability analysis), so there are no counters to hold
		// it to.  What is left to hold is the hang: one cycle, whatever
		// the engine and the backend.
		opt.Backend = passes.BackendMP
		mp, cerr := spmd.CompileSource(src, nil, opt)
		if cerr != nil {
			t.Fatalf("compile (backend mp): %v", cerr)
		}
		for _, other := range []*spmd.Program{prog, mp} {
			if _, oerr := other.ExecuteEngine(exactMachine(prog.Grid.Size()), spmd.EngineInterp); oerr == nil || oerr.Error() != err.Error() {
				t.Fatalf("%v\ninterpreter, backend %s: %v", err, other.Opt.Backend, oerr)
			}
		}
		return
	}
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if derr != nil {
		t.Fatalf("dry run: %v", derr)
	}
	m := res.Machine
	if cost.Ranks != m.Procs {
		t.Fatalf("ranks: predicted %d, measured %d", cost.Ranks, m.Procs)
	}
	if !reflect.DeepEqual(dcost, cost) {
		t.Errorf("dry-run counters differ from Predict's:\n dry run %+v\n predict %+v", dcost, cost)
	}
	if err := spmd.SameMachine(dres, m); err != nil {
		t.Errorf("dry run against execution: %v", err)
	}
	for r := 0; r < m.Procs; r++ {
		if cost.Flops[r] != m.RankFlops[r] {
			t.Errorf("rank %d flops: predicted %v, measured %v", r, cost.Flops[r], m.RankFlops[r])
		}
		if cost.SentMsgs[r] != m.SentMsgs[r] {
			t.Errorf("rank %d sent msgs: predicted %d, measured %d", r, cost.SentMsgs[r], m.SentMsgs[r])
		}
		if cost.SentBytes[r] != m.SentBytes[r] {
			t.Errorf("rank %d sent bytes: predicted %d, measured %d", r, cost.SentBytes[r], m.SentBytes[r])
		}
		if cost.RecvMsgs[r] != m.RecvMsgs[r] {
			t.Errorf("rank %d recv msgs: predicted %d, measured %d", r, cost.RecvMsgs[r], m.RecvMsgs[r])
		}
	}
	if backend != passes.BackendMP {
		sm := res.Shm
		if sm == nil {
			t.Fatalf("backend %s run returned no shm counters", backend)
		}
		for th := 0; th < sm.Threads; th++ {
			if cost.Pulls[th] != sm.Pulls[th] {
				t.Errorf("thread %d pulls: predicted %d, measured %d", th, cost.Pulls[th], sm.Pulls[th])
			}
			if cost.PulledBytes[th] != sm.PulledBytes[th] {
				t.Errorf("thread %d pulled bytes: predicted %d, measured %d", th, cost.PulledBytes[th], sm.PulledBytes[th])
			}
		}
		// shm.Result.Barriers is the team total: threads × collectives.
		if want := cost.Barriers; want != sm.Barriers {
			t.Errorf("barriers: predicted %d, measured %d", want, sm.Barriers)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
}

var exactBackends = []string{passes.BackendMP, passes.BackendShm, passes.BackendHybrid}

// TestPredictExactTestdata runs the invariant over the shipped corpus:
// every program × every single-pass ablation × every backend.
func TestPredictExactTestdata(t *testing.T) {
	files, err := filepath.Glob("../../testdata/*.hpf")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata files found: %v", err)
	}
	ablations := append([]string{""}, passes.OptionalPassNames()...)
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, disable := range ablations {
			for _, backend := range exactBackends {
				name := filepath.Base(f) + "/" + backend
				if disable != "" {
					name += "-no-" + disable
				}
				t.Run(name, func(t *testing.T) {
					opt := spmd.DefaultOptions()
					if disable != "" {
						opt.Disable = append(opt.Disable, disable)
					}
					requireExact(t, string(src), opt, backend)
				})
			}
		}
	}
}

// TestPredictExactGrains runs the invariant across pipeline grains,
// which exercise the strip-mined chunked transfer counting.
func TestPredictExactGrains(t *testing.T) {
	src, err := os.ReadFile("../../testdata/ysolve.hpf")
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []int{1, 3, 8} {
		for _, backend := range exactBackends {
			t.Run(fmt.Sprintf("%s/g%d", backend, g), func(t *testing.T) {
				opt := spmd.DefaultOptions()
				opt.PipelineGrain = g
				requireExact(t, string(src), opt, backend)
			})
		}
	}
}

// exactNAS are the NAS kernels the exactness invariant runs over.
var exactNAS = []struct {
	name string
	src  string
}{
	{"sp", nas.SPSource(16, 1, 2, 2)},
	{"bt", nas.BTSource(12, 1, 2, 2)},
	{"lu", nas.LUSource(12, 1, 2, 2)},
}

// TestPredictExactNAS runs the invariant over the NAS kernels at small
// sizes (BT's per-point leaf calls make the static walk iterate
// concretely, so sizes stay tiny).
func TestPredictExactNAS(t *testing.T) {
	for _, c := range exactNAS {
		for _, backend := range exactBackends {
			t.Run(c.name+"/"+backend, func(t *testing.T) {
				requireExact(t, c.src, spmd.DefaultOptions(), backend)
			})
		}
	}
}

// probeSrc is a statement outside every loop, after one, whose ON_HOME
// term one rank owns: the other three do not run it.
const probeSrc = `
program probe
param N = 16
!hpf$ processors procs(4)
!hpf$ distribute a(BLOCK) onto procs
!hpf$ distribute b(BLOCK) onto procs

subroutine main()
  real a(0:N-1)
  real b(0:N-1)
  do i = 0, N-1
    b(i) = i * 2.0 + 1.0
  enddo
  a(1) = b(14) + 2.0
end
`

// TestAnalyzeFlopsArePredict: on a program with no call and no
// condition, every statement instance runs once per execution of its
// phase, so the summary's phase flops — each statement's iteration-set
// cardinality over the ranks times its cost — add up to Predict's.  The
// programs are the exactness corpus's, and the probe, whose statement
// outside every loop runs on one rank of four.
func TestAnalyzeFlopsArePredict(t *testing.T) {
	srcs := map[string]string{"probe": probeSrc}
	files, err := filepath.Glob("../../testdata/*.hpf")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata files found: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(f)] = string(src)
	}
	for _, c := range exactNAS {
		srcs[c.name] = c.src
	}
	var compared []string
	for _, name := range slices.Sorted(maps.Keys(srcs)) {
		src := srcs[name]
		prog, err := spmd.CompileSource(src, nil, spmd.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		straight := true
		for _, proc := range prog.IR.Procs {
			ir.Walk(proc.Body, func(st ir.Stmt, _ []*ir.Loop) bool {
				switch st.(type) {
				case *ir.CallStmt, *ir.IfStmt:
					straight = false
				}
				return straight
			})
		}
		if !straight {
			continue
		}
		res, err := prog.Analyze()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cost, err := prog.PredictCost()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var flops float64
		for _, ps := range res.Procs {
			for _, ph := range ps.Phases {
				flops += ph.Flops
			}
		}
		if flops != cost.TotalFlops() {
			t.Errorf("%s: phase flops add up to %v, Predict counts %v", name, flops, cost.TotalFlops())
		}
		compared = append(compared, name)
	}
	if len(compared) < 5 {
		t.Errorf("programs with no call and no condition: %v; want the probe and at least 4 more", compared)
	}
	t.Logf("compared %v", compared)
}
