package spmd

// Differential tests of the shared-memory backend against the message
// machine: the same program, engine, and options must produce
// bit-identical global array contents on both substrates (and the
// interpreter oracle), under every pass ablation the message-side
// differential suite runs.  Virtual clocks and traffic counters are
// deliberately NOT compared — the backends price time differently by
// design; only numerics carry correctness.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dhpf/internal/mpsim"
	"dhpf/internal/passes"
)

// compileBackend compiles src with the backend set on otherwise-given
// options.
func compileBackend(t *testing.T, src string, opt Options, backend string) *Program {
	t.Helper()
	opt.Backend = backend
	prog, err := CompileSource(src, nil, opt)
	if err != nil {
		t.Fatalf("compile (backend %s): %v", backend, err)
	}
	return prog
}

// sameAcrossBackends is sameOutcome for a message run and a shared-memory
// run of one program, except that a deadlock with a thread asleep in Drain
// — a wait the message backend does not have, so its rank got further —
// need only be a deadlock on both.
func sameAcrossBackends(mp, sm error) bool {
	if errors.Is(sm, mpsim.ErrDeadlock) && strings.Contains(sm.Error(), " in drain") {
		return errors.Is(mp, mpsim.ErrDeadlock)
	}
	return sameOutcome(mp, sm)
}

// requireShmMatchesMp runs src under the message backend (compiled
// engine, the already-verified reference) and under the shared-memory
// backend with both engines, and fails on any bit-level numeric
// difference.
func requireShmMatchesMp(t *testing.T, src string, opt Options, backend string) {
	t.Helper()
	mp := compileBackend(t, src, opt, passes.BackendMP)
	sm := compileBackend(t, src, opt, backend)
	cfg := testMachine(mp.Grid.Size())
	rm, errm := mp.ExecuteEngine(cfg, EngineCompiled)
	rs, errs := sm.ExecuteEngine(cfg, EngineCompiled)
	ri, erri := sm.ExecuteEngine(cfg, EngineInterp)
	if !sameAcrossBackends(errm, errs) || !sameOutcome(errs, erri) {
		t.Fatalf("backends disagree on the outcome: mp err=%v, shm err=%v, shm-interp err=%v", errm, errs, erri)
	}
	if errm != nil {
		return
	}
	if rs.Shm == nil || rs.Shm.Threads != mp.Grid.Size() {
		t.Fatalf("shm run missing team counters: %+v", rs.Shm)
	}
	if backend == passes.BackendShm && rs.Machine.TotalMessages() != 0 {
		t.Fatalf("pure shm run reports %d messages", rs.Machine.TotalMessages())
	}
	if err := SameArrays(mp, rm, rs); err != nil {
		t.Fatalf("mp against shm: %v", err)
	}
	if err := SameArrays(mp, rs, ri); err != nil {
		t.Fatalf("shm engines differ: compiled against interp: %v", err)
	}
}

// TestShmByteIdenticalInline runs the inline differential corpus under
// both shared-memory layouts.
func TestShmByteIdenticalInline(t *testing.T) {
	for _, backend := range []string{passes.BackendShm, passes.BackendHybrid} {
		for name, src := range engineCorpus {
			t.Run(backend+"/"+name, func(t *testing.T) {
				requireShmMatchesMp(t, src, DefaultOptions(), backend)
			})
		}
	}
}

// TestShmByteIdenticalTestdata runs the whole shipped corpus, with pass
// ablations, under the shared-memory backend.  The hybrid layout rides
// along on the unablated pass to bound runtime (its synchronization
// protocol is identical; only the cost model differs).
func TestShmByteIdenticalTestdata(t *testing.T) {
	files, err := filepath.Glob("../../testdata/*.hpf")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata files found: %v", err)
	}
	ablations := [][]string{nil, {"availability"}, {"loopdist"}}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, disable := range ablations {
			name := filepath.Base(f)
			for _, d := range disable {
				name += "-no-" + d
			}
			t.Run(name, func(t *testing.T) {
				opt := DefaultOptions()
				opt.Disable = append(opt.Disable, disable...)
				requireShmMatchesMp(t, string(src), opt, passes.BackendShm)
			})
			if disable == nil {
				t.Run(filepath.Base(f)+"-hybrid", func(t *testing.T) {
					requireShmMatchesMp(t, string(src), DefaultOptions(), passes.BackendHybrid)
				})
			}
		}
	}
}

// TestShmRaceDetector exercises the shared-memory runtime's actual
// concurrency — rendezvous pulls, drains, barriers, reductions — on a
// multi-procedure program with real cross-thread array reads, so the
// race detector (CI runs this package under -race) can observe every
// happens-before edge the protocol claims.
func TestShmRaceDetector(t *testing.T) {
	srcs := []string{engineCorpus["interprocedural"], engineCorpus["wavefront"], engineCorpus["reduction"]}
	for i, src := range srcs {
		for _, backend := range []string{passes.BackendShm, passes.BackendHybrid} {
			t.Run(fmt.Sprintf("%s/%d", backend, i), func(t *testing.T) {
				prog := compileBackend(t, src, DefaultOptions(), backend)
				if _, err := prog.ExecuteEngine(testMachine(prog.Grid.Size()), EngineCompiled); err != nil {
					t.Fatalf("execute: %v", err)
				}
			})
		}
	}
}

// TestShmGrainSweep checks shm/mp identity across pipeline granularity
// settings: the strip-level rendezvous protocol must match the message
// protocol at every grain the tuner would explore.
func TestShmGrainSweep(t *testing.T) {
	src, err := os.ReadFile("../../testdata/ysolve.hpf")
	if err != nil {
		t.Fatal(err)
	}
	for _, grain := range []int{1, 4, 16, 64} {
		opt := DefaultOptions()
		opt.PipelineGrain = grain
		t.Run(fmt.Sprintf("grain%d", grain), func(t *testing.T) {
			requireShmMatchesMp(t, string(src), opt, passes.BackendShm)
		})
	}
}

// FuzzShmVsMp cross-checks the backends on arbitrary source text:
// anything that compiles must produce bit-identical numerics on the
// message machine, the shared-memory team, and the interpreter oracle.
// Time-limit aborts are compared only for mutual occurrence when the
// clocks agree they fired — the two cost models legitimately cross a
// virtual-time budget at different points, so a one-sided ErrTimeLimit
// is a skip, not a failure.
func FuzzShmVsMp(f *testing.F) {
	files, _ := filepath.Glob("../../testdata/*.hpf")
	for _, file := range files {
		if src, err := os.ReadFile(file); err == nil {
			f.Add(string(src))
		}
	}
	for _, src := range engineCorpus {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		// Front-end panics on degenerate directives are pre-existing and
		// backend-independent; this target only hunts substrate
		// divergence, so any compile failure is a skip.
		compile := func(backend string) (p *Program, err error) {
			defer func() {
				if rec := recover(); rec != nil {
					err = fmt.Errorf("compile panic: %v", rec)
				}
			}()
			opt := DefaultOptions()
			opt.Backend = backend
			return CompileSource(src, nil, opt)
		}
		mp, err := compile(passes.BackendMP)
		if err != nil {
			return
		}
		if mp.Grid.Size() > 16 {
			return
		}
		sm, err := compile(passes.BackendShm)
		if err != nil {
			t.Fatalf("compiles under mp but not shm: %v", err)
		}
		cfg := testMachine(mp.Grid.Size())
		cfg.TimeLimit = 1.0 // deterministic abort within each backend
		formsArePlans(t, mp, cfg)
		formsArePlans(t, sm, cfg)
		rm, errm := mp.ExecuteEngine(cfg, EngineCompiled)
		rs, errs := sm.ExecuteEngine(cfg, EngineCompiled)
		ri, erri := mp.ExecuteEngine(cfg, EngineInterp)
		if errors.Is(errm, mpsim.ErrTimeLimit) != errors.Is(errs, mpsim.ErrTimeLimit) {
			// Different cost models cross the virtual-time budget at
			// different points; a one-sided abort is not a divergence.
			return
		}
		if !sameAcrossBackends(errm, errs) || !sameOutcome(errm, erri) {
			t.Fatalf("backends disagree on the outcome: mp err=%v, shm err=%v, interp err=%v", errm, errs, erri)
		}
		if errm != nil {
			return
		}
		// Arbitrary source may declare no array in main (errNoArray).
		if err := SameArrays(mp, rm, rs); err != nil && !errors.Is(err, errNoArray) {
			t.Fatalf("mp against shm: %v", err)
		}
		if err := SameArrays(mp, rm, ri); err != nil && !errors.Is(err, errNoArray) {
			t.Fatalf("mp against interp: %v", err)
		}
	})
}
