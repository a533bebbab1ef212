package dhpf

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"dhpf/internal/cache"
	"dhpf/internal/codegen"
	"dhpf/internal/nas"
	"dhpf/internal/passes"
)

// TestDerivedSetsAreACache: what the compiler derives once — each body's
// dependences, each (statement, rank) iteration set and each (reference,
// rank) non-local set — is a cache, never a source of truth.  Over the
// codegen corpus, testdata and the NAS sources at N = 12, under defaults
// and under each single-pass Disable, cp.Context.Audit re-derives every
// graph and set the context holds from scratch: with the pass pipeline
// just run (nothing released yet), after a cold and a warm incremental
// pipeline (the warm one holds the graphs of the procedures a pass read
// them for), and after a Compile has printed its Report and every node
// program.
func TestDerivedSetsAreACache(t *testing.T) {
	// conflict2 is the one program loop distribution rewrites under
	// defaults; no other source here is.
	split, err := os.ReadFile("internal/cp/testdata/conflict2.hpf")
	if err != nil {
		t.Fatal(err)
	}
	sources := map[string]string{
		"conflict2": string(split),
		"sp12":      nas.SPSource(12, 1, 2, 2),
		"bt12":      nas.BTSource(12, 1, 2, 2),
		"lu12":      nas.LUSource(12, 1, 2, 2),
		"spmod12":   nas.SPModSource(12, 1, 2, 2),
	}
	for _, e := range codegen.Corpus() {
		sources["corpus-"+e.Name] = e.Source
	}
	paths, err := filepath.Glob("testdata/*.hpf")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no testdata: %v", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		sources[filepath.Base(p)] = string(src)
	}
	opts := map[string]Options{"defaults": DefaultOptions()}
	if !raceDetector {
		for _, name := range OptionalPassNames() {
			opts["no-"+name] = DefaultOptions().WithDisabled(name)
		}
	}
	for name, src := range sources {
		for oname, opt := range opts {
			t.Run(name+"/"+oname, func(t *testing.T) {
				cc := &passes.CompileContext{Source: src, Opt: opt}
				if err := passes.Run(cc); err != nil {
					var pair *passes.UndistributedPairError
					if !errors.As(err, &pair) {
						t.Skipf("does not compile: %v", err)
					}
					// A marked pair with loopdist disabled: every path
					// refuses alike, and there is nothing to audit.
					_, warmErr := passes.RunIncremental(&passes.CompileContext{Source: src, Opt: opt}, cache.NewArtifactStore(0))
					_, pubErr := Compile(src, nil, opt)
					if warmErr == nil || pubErr == nil || warmErr.Error() != err.Error() || pubErr.Error() != err.Error() {
						t.Fatalf("refusals differ: pipeline %v, incremental %v, Compile %v", err, warmErr, pubErr)
					}
					return
				}
				if err := cc.Ctx.Audit(); err != nil {
					t.Fatalf("after the pipeline: %v", err)
				}
				// Round 1 is cold; round 2 thaws every procedure's
				// selection from the store.
				store := cache.NewArtifactStore(0)
				for round := 1; round <= 2; round++ {
					cc := &passes.CompileContext{Source: src, Opt: opt}
					if _, err := passes.RunIncremental(cc, store); err != nil {
						t.Fatal(err)
					}
					if err := cc.Ctx.Audit(); err != nil {
						t.Fatalf("incremental round %d: %v", round, err)
					}
				}
				prog, err := Compile(src, nil, opt)
				if err != nil {
					t.Fatal(err)
				}
				prog.Report()
				for r := 0; r < prog.Ranks(); r++ {
					prog.NodeProgram(r)
				}
				if n := prog.inner.Ctx.DepsHeld(); n != 0 {
					t.Errorf("%d dependences outlived the pipeline", n)
				}
				if err := prog.inner.Ctx.Audit(); err != nil {
					t.Fatalf("after Report and the node programs: %v", err)
				}
			})
		}
	}
}
