package dhpf_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"dhpf"
	"dhpf/internal/cache"
	"dhpf/internal/nas"
	"dhpf/internal/passes"
)

// editSPMod makes the canonical warm edit to the modular SP source: a
// one-constant change inside the add procedure (the CoefAdd term).
func editSPMod(t testing.TB, src string) string {
	t.Helper()
	edited := strings.Replace(src, " + 0.1*(rhs(1", " + 0.105*(rhs(1", 1)
	if edited == src {
		t.Fatal("warm-edit marker not found in SPModSource output")
	}
	return edited
}

// TestIncrementalSPModByteIdentical: the full modular NAS SP program
// through the public incremental API.  A warm recompile after a
// one-procedure edit must reuse every unchanged procedure's artifacts
// and still produce byte-identical Report, node programs and
// verification output to a cold compile of the edited source.
func TestIncrementalSPModByteIdentical(t *testing.T) {
	base := nas.SPModSource(12, 1, 2, 2)
	inc := dhpf.NewIncremental(0)
	opt := dhpf.DefaultOptions()

	if _, _, err := inc.Compile(base, nil, opt); err != nil {
		t.Fatalf("priming compile: %v", err)
	}

	edited := editSPMod(t, base)
	warm, delta, err := inc.Compile(edited, nil, opt)
	if err != nil {
		t.Fatalf("warm compile: %v", err)
	}
	cold, err := dhpf.Compile(edited, nil, opt)
	if err != nil {
		t.Fatalf("cold compile: %v", err)
	}

	if warm.Report() != cold.Report() {
		t.Error("warm report differs from cold report")
	}
	for rk := 0; rk < cold.Ranks(); rk++ {
		if warm.NodeProgram(rk) != cold.NodeProgram(rk) {
			t.Errorf("rank %d node program differs warm vs cold", rk)
		}
	}
	wv, err1 := warm.Verify()
	cv, err2 := cold.Verify()
	if err1 != nil || err2 != nil {
		t.Fatalf("verify: warm %v cold %v", err1, err2)
	}
	if wv.Text != cv.Text {
		t.Error("warm verification report differs from cold")
	}

	// Only add (edited) and main (its caller) may be dirty.
	if delta.Dirty != 2 {
		t.Errorf("dirty procs = %v, want exactly [add main]", delta.DirtyProcs)
	}
	if delta.ArtifactHits == 0 {
		t.Error("warm edit thawed no artifacts")
	}
	stats := inc.ArtifactStats()
	if stats.Hits == 0 || stats.Entries == 0 {
		t.Errorf("artifact store counters empty after warm edit: %+v", stats)
	}
}

// TestIncrementalSPModCachedStats: an identical recompile is fully
// cached — zero dirty procedures, no misses, and the per-pass records
// label the memoized passes cached.
func TestIncrementalSPModCachedStats(t *testing.T) {
	src := nas.SPModSource(12, 1, 2, 2)
	inc := dhpf.NewIncremental(0)
	if _, _, err := inc.Compile(src, nil, dhpf.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	prog, delta, err := inc.Compile(src, nil, dhpf.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if delta.Dirty != 0 || delta.ArtifactMisses != 0 {
		t.Fatalf("identical recompile not fully cached: %v", delta)
	}
	var cached int
	for _, st := range prog.PassStats() {
		if st.Cached {
			cached++
		}
	}
	if cached == 0 {
		t.Error("no pass marked cached on a fully-memoized recompile")
	}
	if !strings.Contains(dhpf.StatsTable(prog.PassStats()), "cached") {
		t.Error("stats table does not label cached passes")
	}
}

// TestIncrementalEditDoesNoCleanPassWork: after a one-procedure edit the
// recompile does pass work for the dirty procedures only — every
// per-procedure artifact of every clean procedure is thawed from the
// store, none recomputed.  This is what the benchmark gate's "warm ≥ 10×
// cold" ratio stood for, as an exact count: a ratio against the cold side
// fails whenever the compiler itself gets faster.
func TestIncrementalEditDoesNoCleanPassWork(t *testing.T) {
	base := nas.SPModSource(12, 1, 2, 2)
	inc := dhpf.NewIncremental(0)
	_, prime, err := inc.Compile(base, nil, dhpf.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The priming compile recomputes everything: its misses are the
	// artifacts one procedure has, times the procedures.
	perProc := prime.ArtifactMisses / int64(prime.Procs)
	if prime.Dirty != prime.Procs || perProc == 0 || prime.ArtifactMisses != perProc*int64(prime.Procs) {
		t.Fatalf("priming compile: %v, want every procedure dirty and the same artifacts for each", prime)
	}
	_, delta, err := inc.Compile(editSPMod(t, base), nil, dhpf.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	dirty, clean := int64(delta.Dirty), int64(delta.Procs-delta.Dirty)
	if dirty == 0 || clean == 0 {
		t.Fatalf("edited recompile: %v, want some but not all procedures dirty", delta)
	}
	if delta.ArtifactMisses != perProc*dirty || delta.ArtifactHits != perProc*clean {
		t.Errorf("edited recompile: %v, want %d artifacts recomputed (the dirty procedures') and %d reused (every clean procedure's)",
			delta, perProc*dirty, perProc*clean)
	}
}

// TestIncrementalSPModAblations: the byte-identical invariant holds for
// the modular SP program under every single-pass ablation.
func TestIncrementalSPModAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("full ablation matrix in long mode only")
	}
	base := nas.SPModSource(10, 1, 2, 2)
	for _, name := range append([]string{""}, dhpf.OptionalPassNames()...) {
		label := "default"
		opt := dhpf.DefaultOptions()
		if name != "" {
			label = "no-" + name
			opt = opt.WithDisabled(name)
		}
		t.Run(label, func(t *testing.T) {
			inc := dhpf.NewIncremental(0)
			if _, _, err := inc.Compile(base, nil, opt); err != nil {
				t.Fatalf("prime: %v", err)
			}
			edited := editSPMod(t, base)
			warm, _, err := inc.Compile(edited, nil, opt)
			if err != nil {
				t.Fatalf("warm: %v", err)
			}
			cold, err := dhpf.Compile(edited, nil, opt)
			if err != nil {
				t.Fatalf("cold: %v", err)
			}
			if warm.Report() != cold.Report() {
				t.Error("warm report differs from cold under ablation")
			}
			if warm.NodeProgram(0) != cold.NodeProgram(0) {
				t.Error("warm node program differs from cold under ablation")
			}
		})
	}
}

// TestOneCompilePath: the benchmark's traced compile drives
// passes.BuildPipeline one pass at a time (Run, then Check).  That
// driver, passes.Run and RunIncremental from an empty store are one
// compile: they agree on the selection notes, every event, the verify
// summary and the analysis text, and Run and RunIncremental on every
// pass's name, summary and notes.  Nothing is cached without a store.
func TestOneCompilePath(t *testing.T) {
	lhsy, err := os.ReadFile("testdata/lhsy.hpf")
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []struct{ name, src string }{
		{"lhsy", string(lhsy)},
		{"spmod12", nas.SPModSource(12, 1, 2, 2)},
	} {
		for _, opt := range []dhpf.Options{dhpf.DefaultOptions(), dhpf.DefaultOptions().WithDisabled(passes.PassAvailability)} {
			src := in.src
			t.Run(fmt.Sprintf("%s/disable=%v", in.name, opt.Disable), func(t *testing.T) {
				pipeline, err := passes.BuildPipeline(opt)
				if err != nil {
					t.Fatal(err)
				}
				driven := &passes.CompileContext{Source: src, Opt: opt}
				for _, p := range pipeline {
					if err := p.Run(driven); err != nil {
						t.Fatalf("pass %s: %v", p.Name, err)
					}
					if p.Check != nil {
						if err := p.Check(driven); err != nil {
							t.Fatalf("pass %s: invariant: %v", p.Name, err)
						}
					}
				}
				cold := &passes.CompileContext{Source: src, Opt: opt}
				if err := passes.Run(cold); err != nil {
					t.Fatal(err)
				}
				stored := &passes.CompileContext{Source: src, Opt: opt}
				if _, err := passes.RunIncremental(stored, cache.NewArtifactStore(0)); err != nil {
					t.Fatal(err)
				}
				want := compileFacts(cold)
				for label, cc := range map[string]*passes.CompileContext{"pass by pass": driven, "empty store": stored} {
					if got := compileFacts(cc); got != want {
						t.Errorf("%s differs from passes.Run:\n--- %s ---\n%s\n--- passes.Run ---\n%s", label, label, got, want)
					}
				}
				if got, want := passStats(stored.Stats), passStats(cold.Stats); got != want {
					t.Errorf("stats differ:\n--- empty store ---\n%s\n--- passes.Run ---\n%s", got, want)
				}
				for _, st := range cold.Stats {
					if st.Cached {
						t.Errorf("pass %s is cached in a compile without a store", st.Name)
					}
				}
			})
		}
	}
}

// compileFacts renders what the three compile paths must agree on.
func compileFacts(cc *passes.CompileContext) string {
	var b strings.Builder
	for _, n := range cc.Sel.Notes() {
		b.WriteString(n + "\n")
	}
	for _, proc := range cc.IR.Procs {
		for _, e := range cc.Comm[proc.Name].Events {
			b.WriteString(proc.Name + ": " + e.String() + "\n")
		}
	}
	b.WriteString(cc.Verify.Summary() + "\n")
	b.WriteString(cc.Analysis.Text())
	return b.String()
}

// passStats renders each pass's name, summary and notes.
func passStats(stats []passes.Stat) string {
	var b strings.Builder
	for _, st := range stats {
		fmt.Fprintf(&b, "%s: %s\n", st.Name, st.Summary)
		for _, n := range st.Notes {
			b.WriteString("  " + n + "\n")
		}
	}
	return b.String()
}
