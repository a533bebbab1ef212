package spmd_test

// The virtual-clock golden: every rank's final clock and idle time, as
// hex Float64bits, for the shipped corpus and the NAS kernels on all
// three backends at pipeline grains 1 and 8.  The file was generated at
// the commit before the two machines were merged onto one core, so it
// pins the cost model bit for bit — including the float association of
// the barrier and reduction completion terms, which no other test sees.
// The same corpus holds provenance values (item 25) to the serial run.

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dhpf/internal/mpsim"
	"dhpf/internal/nas"
	"dhpf/internal/parser"
	"dhpf/internal/spmd"
)

var updateClocks = flag.Bool("update-clocks", false, "rewrite testdata/clocks.golden (only when the cost model is meant to change)")

// reduce2dSrc puts sum, min and max reductions on a 2×2 grid, so the
// hybrid layout prices a reduction with both an intra-group and a
// cross-group tree level.
const reduce2dSrc = `
program red2
param N = 16
!hpf$ processors procs(2, 2)
!hpf$ distribute a(BLOCK, BLOCK) onto procs
subroutine main()
  real a(0:N-1, 0:N-1)
  real total
  real lo
  real hi
  total = 0.5
  lo = 1000.0
  hi = -1000.0
  do j = 0, N-1
    do i = 0, N-1
      a(i,j) = 0.25*i - 0.125*j - 3.0
    enddo
  enddo
  do j = 0, N-1
    do i = 0, N-1
      total = total + a(i,j)
    enddo
  enddo
  do j = 0, N-1
    do i = 0, N-1
      lo = min(lo, a(i,j))
      hi = max(hi, a(i,j))
    enddo
  enddo
  do j = 0, N-1
    do i = 0, N-1
      a(i,j) = a(i,j) + 0.001*total + 0.0001*lo - 0.0001*hi
    enddo
  enddo
end
`

func clockCorpus(t testing.TB) (names []string, srcs map[string]string) {
	t.Helper()
	srcs = map[string]string{
		"sp16":     nas.SPSource(16, 1, 2, 2),
		"bt12":     nas.BTSource(12, 1, 2, 2),
		"lu16":     nas.LUSource(16, 1, 2, 2),
		"reduce2d": reduce2dSrc,
	}
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
	for _, f := range files {
		names = append(names, filepath.Base(f))
	}
	return append(names, "sp16", "bt12", "lu16", "reduce2d"), srcs
}

const clockGoldenPath = "testdata/clocks.golden"

// TestClockGolden has two producers of every row: Execute, and the dry
// run (Program.DryRun), which walks the same schedule on the same
// machine with no values at all.
func TestClockGolden(t *testing.T) {
	names, srcs := clockCorpus(t)
	want, err := os.ReadFile(clockGoldenPath)
	if err != nil && !*updateClocks {
		t.Fatal(err)
	}
	var exec, dry strings.Builder
	rows := func(b *strings.Builder, name, backend string, grain int, m *mpsim.Result) {
		for r, clock := range m.RankTime {
			fmt.Fprintf(b, "%s %s g%d rank%d clock=%016x idle=%016x\n", name, backend, grain, r,
				math.Float64bits(clock), math.Float64bits(m.RankIdle[r]))
		}
	}
	for _, name := range names {
		for _, backend := range []string{"mp", "shm", "hybrid"} {
			for _, grain := range []int{1, 8} {
				opt := spmd.DefaultOptions()
				opt.Backend = backend
				opt.PipelineGrain = grain
				prog, err := spmd.CompileSource(srcs[name], nil, opt)
				if err != nil {
					t.Fatalf("%s/%s/g%d: compile: %v", name, backend, grain, err)
				}
				cfg := mpsim.SP2Config(prog.Grid.Size())
				_, dres, err := prog.DryRun(cfg)
				if err != nil {
					t.Fatalf("%s/%s/g%d: dry run: %v", name, backend, grain, err)
				}
				rows(&dry, name, backend, grain, dres)
				res, err := prog.Execute(cfg)
				if err != nil {
					t.Fatalf("%s/%s/g%d: execute: %v", name, backend, grain, err)
				}
				rows(&exec, name, backend, grain, res.Machine)
			}
		}
	}
	if *updateClocks {
		if err := os.WriteFile(clockGoldenPath, []byte(exec.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for producer, b := range map[string]*strings.Builder{"execute": &exec, "dry run": &dry} {
		got := b.String()
		if got == string(want) {
			continue
		}
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("%s: virtual clocks drifted from the golden at line %d:\n got  %s\n want %s", producer, i+1, gl[i], wl[min(i, len(wl)-1)])
			}
		}
		t.Fatalf("%s: virtual clocks drifted from the golden: %d lines, want %d", producer, len(gl), len(wl))
	}
}

// provenanceRuns compiles src on mp and shm at pipeline grains 1 and 8
// and hands each interpreted execution, with the serial run of src, to
// check; every run, the serial one too, in provenance mode when prov.
func provenanceRuns(t *testing.T, name, src string, prov bool, check func(cfg string, res *spmd.ExecResult, ref *spmd.SerialResult)) {
	t.Helper()
	if prov {
		defer spmd.Provenance()()
	}
	ref, err := spmd.RunSerial(parser.MustParse(src), nil)
	if err != nil {
		t.Fatalf("%s: serial: %v", name, err)
	}
	for _, backend := range []string{"mp", "shm"} {
		for _, grain := range []int{1, 8} {
			opt := spmd.DefaultOptions()
			opt.Backend, opt.PipelineGrain = backend, grain
			prog, err := spmd.CompileSource(src, nil, opt)
			if err != nil {
				t.Fatalf("%s: compile: %v", name, err)
			}
			res, err := prog.ExecuteEngine(mpsim.SP2Config(prog.Grid.Size()), spmd.EngineInterp)
			if err != nil {
				t.Fatalf("%s/%s/g%d: %v", name, backend, grain, err)
			}
			check(fmt.Sprintf("%s/%s/g%d", name, backend, grain), res, ref)
		}
	}
}

// TestProvenanceFindsNoFalseDifference: on the clock corpus every array
// that agrees with serial in float mode agrees bit for bit in provenance
// mode too, so the mode sees only what a stale or misplaced value
// causes.  The one array that differs is SP's cv, in both modes: a
// replicated scratch row with no layout, whose result is rank 0's copy —
// the last row rank 0 computed, not the last row of the serial run.
func TestProvenanceFindsNoFalseDifference(t *testing.T) {
	names, srcs := clockCorpus(t)
	for _, name := range names {
		provenanceRuns(t, name, srcs[name], true, func(cfg string, res *spmd.ExecResult, ref *spmd.SerialResult) {
			for _, array := range ref.Names() {
				_, err := res.AgreesWithSerial(ref, 0, array)
				if scratch := name == "sp16" && array == "cv"; (err != nil) != scratch {
					t.Errorf("%s: %s: %v, want a difference %v", cfg, array, err, scratch)
				}
			}
		})
	}
}

// TestConflict2ReadsStaleUnderProvenance: loop distribution expands
// conflict2's s into s__x(j), laid out with its writing statement's
// ON_HOME a(j), so where the owner of c(j+1) is not the owner of a(j) a
// shift brings s__x(j) to it.  The committed program's a is all zero, so
// float values alone would hide a stale read; provenance values — which
// only the interpreter computes — show it in c.  Float mode agrees with
// the serial run on every backend, grain and engine, provenance mode on
// every backend and grain.
func TestConflict2ReadsStaleUnderProvenance(t *testing.T) {
	src, err := os.ReadFile("../cp/testdata/conflict2.hpf")
	if err != nil {
		t.Fatal(err)
	}
	for _, prov := range []bool{false, true} {
		engines := []spmd.Engine{spmd.EngineInterp}
		if !prov {
			engines = append(engines, spmd.EngineCompiled, spmd.EngineCodegen)
		} else {
			defer spmd.Provenance()()
		}
		ref, err := spmd.RunSerial(parser.MustParse(string(src)), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, backend := range []string{"mp", "shm", "hybrid"} {
			for _, grain := range []int{1, 8} {
				prog := compileOn(t, string(src), grain, backend)
				for _, engine := range engines {
					res, err := prog.ExecuteEngine(mpsim.SP2Config(prog.Grid.Size()), engine)
					if err == nil {
						_, err = res.AgreesWithSerial(ref, 0)
					}
					if err != nil {
						t.Errorf("%s/g%d/%s, provenance %v: %v", backend, grain, engine, prov, err)
					}
				}
			}
		}
	}
}
