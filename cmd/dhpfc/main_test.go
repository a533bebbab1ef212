package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dhpf"
	"dhpf/internal/passes"
)

// TestGoldenLhsy drives the CLI end to end on testdata/lhsy.hpf with
// -run (virtual time is deterministic) and compares against the stored
// golden output.
func TestGoldenLhsy(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-run", "../../testdata/lhsy.hpf"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	want, err := os.ReadFile("testdata/lhsy.golden")
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Errorf("output differs from golden:\n--- got ---\n%s\n--- want ---\n%s", out.String(), want)
	}
}

// TestEngineFlagGolden: both execution engines render the identical run
// report — the compiled engine is byte-for-byte the interpreter as far
// as any observable output goes, including the virtual-time counters in
// the execution summary line.
func TestEngineFlagGolden(t *testing.T) {
	var compiled, interp, errb bytes.Buffer
	if code := run([]string{"-run", "-engine", "compiled", "../../testdata/lhsy.hpf"}, &compiled, &errb); code != 0 {
		t.Fatalf("-engine compiled exit %d, stderr: %s", code, errb.String())
	}
	if code := run([]string{"-run", "-engine", "interp", "../../testdata/lhsy.hpf"}, &interp, &errb); code != 0 {
		t.Fatalf("-engine interp exit %d, stderr: %s", code, errb.String())
	}
	if compiled.String() != interp.String() {
		t.Errorf("run reports differ between engines:\n--- compiled ---\n%s\n--- interp ---\n%s",
			compiled.String(), interp.String())
	}
	want, err := os.ReadFile("testdata/lhsy.golden")
	if err != nil {
		t.Fatal(err)
	}
	if compiled.String() != string(want) {
		t.Errorf("-engine compiled output differs from golden:\n--- got ---\n%s\n--- want ---\n%s",
			compiled.String(), want)
	}

	var out bytes.Buffer
	errb.Reset()
	if code := run([]string{"-run", "-engine", "bogus", "../../testdata/lhsy.hpf"}, &out, &errb); code != 1 {
		t.Errorf("bad -engine exit = %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "unknown engine") {
		t.Errorf("bad -engine stderr = %q, want mention of unknown engine", errb.String())
	}
}

// TestEngineCodegenFallback: -engine codegen on a program outside the
// generated corpus runs every unit on the in-process evaluator, silently
// — exit 0, nothing on stderr — and its report is byte-identical to the
// golden up to the codegen engine's own coverage line, which says so.
func TestEngineCodegenFallback(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-run", "-engine", "codegen", "../../testdata/lhsy.hpf"}, &out, &errb); code != 0 {
		t.Fatalf("-engine codegen exit %d, stderr: %s", code, errb.String())
	}
	if errb.Len() != 0 {
		t.Errorf("stderr = %q, want nothing", errb.String())
	}
	golden, err := os.ReadFile("testdata/lhsy.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := string(golden) + "kernels: 0 units bound, 0 calls, 0 bails, native flop share 0.000; evaluator: 8 calls, flop share 1.000\n"
	if out.String() != want {
		t.Errorf("-engine codegen output differs from golden + coverage line:\n--- got ---\n%s\n--- want ---\n%s",
			out.String(), want)
	}
}

// TestRunShowsInterpretedNests: a compiled engine that leaves work to
// the interpreter says so under the execution summary — here a nest
// outside the unit grammar (max with an argument too many) and its 16
// statement instances — and the interpreter itself, like a run with
// nothing left over (the goldens above), prints no such line.
func TestRunShowsInterpretedNests(t *testing.T) {
	src := filepath.Join(t.TempDir(), "declined.hpf")
	if err := os.WriteFile(src, []byte(`
program dec
param N = 16
!hpf$ processors procs(4)
!hpf$ distribute a(BLOCK) onto procs
subroutine main()
  real a(0:N-1)
  do i = 0, N-1
    a(i) = max(0.5 * i, 3.0, 100.0)
  enddo
end
`), 0o644); err != nil {
		t.Fatal(err)
	}
	for engine, want := range map[string]bool{"compiled": true, "codegen": true, "interp": false} {
		var out, errb bytes.Buffer
		if code := run([]string{"-run", "-engine", engine, src}, &out, &errb); code != 0 {
			t.Fatalf("-engine %s exit %d, stderr: %s", engine, code, errb.String())
		}
		if got := strings.Contains(out.String(), "\nnests: 1 declined, 16 interpreted instances\n"); got != want {
			t.Errorf("-engine %s: nests line present = %v, want %v:\n%s", engine, got, want, out.String())
		}
	}
}

// TestBackendFlag: -backend shm runs the program on the shared-memory
// substrate — the execution line reports pulls instead of messages —
// and -backend hybrid reports both levels.  An unknown backend is a
// usage error.
func TestBackendFlag(t *testing.T) {
	var shm, hyb, errb bytes.Buffer
	if code := run([]string{"-run", "-backend", "shm", "../../testdata/lhsy.hpf"}, &shm, &errb); code != 0 {
		t.Fatalf("-backend shm exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(shm.String(), "execution (shm):") || !strings.Contains(shm.String(), "pulls") {
		t.Errorf("shm run summary missing pull counters:\n%s", shm.String())
	}
	if strings.Contains(shm.String(), "messages") {
		t.Errorf("pure shm run should not report messages:\n%s", shm.String())
	}
	if code := run([]string{"-run", "-backend", "hybrid", "../../testdata/lhsy.hpf"}, &hyb, &errb); code != 0 {
		t.Fatalf("-backend hybrid exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(hyb.String(), "execution (hybrid") || !strings.Contains(hyb.String(), "outer messages") {
		t.Errorf("hybrid run summary missing outer traffic:\n%s", hyb.String())
	}

	errb.Reset()
	var out bytes.Buffer
	if code := run([]string{"-backend", "cuda", "../../testdata/lhsy.hpf"}, &out, &errb); code != 1 {
		t.Errorf("bad -backend exit = %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "unknown backend") {
		t.Errorf("bad -backend stderr = %q, want mention of unknown backend", errb.String())
	}
}

// TestExplainTable checks -explain prints one table row per pipeline
// pass (wall times vary, so the check is structural).
func TestExplainTable(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-explain", "../../testdata/lhsy.hpf"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, name := range passes.PassNames() {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, name+" ") || strings.HasPrefix(line, name+"\t") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("-explain output has no row for pass %q", name)
		}
	}
	if !strings.Contains(out.String(), "Δbytes") {
		t.Error("-explain output missing the volume-delta column")
	}
}

// TestDisableFlag: -disable is the one spelling of an ablation.  Every
// optional pass, dropped through the library, the wire options and the
// CLI flags, is the same compilation — one dhpf.Fingerprint, one report —
// and the removed -no-* flags are usage errors, not silent full compiles.
func TestDisableFlag(t *testing.T) {
	src, err := os.ReadFile("../../testdata/lhsy.hpf")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{}
	for _, pass := range passes.OptionalPassNames() {
		lib := dhpf.DefaultOptions().WithDisabled(pass)
		prog, err := dhpf.Compile(string(src), nil, lib)
		if err != nil {
			t.Fatalf("%s: %v", pass, err)
		}
		want := dhpf.Fingerprint(string(src), nil, lib)
		wire, err := (&dhpf.RequestOptions{Disable: []string{pass}}).Resolve()
		if err != nil {
			t.Fatalf("%s: %v", pass, err)
		}
		if got := dhpf.Fingerprint(string(src), nil, wire); got != want {
			t.Errorf("%s: RequestOptions.Resolve fingerprints %s, library %s", pass, got, want)
		}
		cli, err := compileOptions("translate", "", pass, 8, false)
		if err != nil {
			t.Fatalf("%s: %v", pass, err)
		}
		if got := dhpf.Fingerprint(string(src), nil, cli); got != want {
			t.Errorf("%s: dhpfc -disable fingerprints %s, library %s", pass, got, want)
		}
		if prev, dup := seen[want]; dup {
			t.Errorf("disabling %s and %s fingerprint identically", pass, prev)
		}
		seen[want] = pass

		var out, errb bytes.Buffer
		if code := run([]string{"-disable", pass, "../../testdata/lhsy.hpf"}, &out, &errb); code != 0 {
			t.Fatalf("-disable %s: exit %d: %s", pass, code, errb.String())
		}
		if out.String() != prog.Report() {
			t.Errorf("-disable %s report differs from the library's", pass)
		}
	}

	for _, old := range []string{"localize", "loopdist", "interproc", "avail"} {
		flag := "-no-" + old
		var out, errb bytes.Buffer
		if code := run([]string{flag, "../../testdata/lhsy.hpf"}, &out, &errb); code != 2 {
			t.Errorf("%s exit = %d, want 2", flag, code)
		}
		if !strings.Contains(errb.String(), "flag provided but not defined: "+flag) {
			t.Errorf("%s stderr = %q, want the flag package's not-defined message", flag, errb.String())
		}
	}
}

func TestBadUsage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{}, &out, &errb); code != 2 {
		t.Errorf("no-args exit = %d, want 2", code)
	}
	if code := run([]string{"-disable", "bogus", "../../testdata/lhsy.hpf"}, &out, &errb); code != 1 {
		t.Errorf("bad -disable exit = %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "unknown pass") {
		t.Errorf("bad -disable stderr = %q, want mention of unknown pass", errb.String())
	}

	// A rank the program does not have is refused after the report, in
	// one line: it used to reach the grid and panic.
	var report bytes.Buffer
	if code := run([]string{"../../testdata/ysolve.hpf"}, &report, &errb); code != 0 {
		t.Fatalf("ysolve.hpf: exit %d: %s", code, errb.String())
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-emit", "9", "../../testdata/ysolve.hpf"}, &out, &errb); code != 1 {
		t.Errorf("-emit 9 exit = %d, want 1", code)
	}
	if want := "dhpfc: -emit 9: program has 4 ranks (0..3)\n"; errb.String() != want {
		t.Errorf("-emit 9 stderr = %q, want %q", errb.String(), want)
	}
	if out.String() != report.String() {
		t.Errorf("-emit 9 stdout is not exactly the report:\n%s", out.String())
	}
}

// TestRunDeadlockExitsOne: a program that cannot finish is one line on
// stderr — the machine's report of every rank's wait — and exit 1, on
// every engine; not a hang, and not a goroutine dump.
func TestRunDeadlockExitsOne(t *testing.T) {
	const want = "dhpfc: deadlock: rank 0 <- rank 1 tag 8193 w[8]; rank 1 <- rank 0 tag 8192 w[16]; " +
		"rank 2 <- rank 1 tag 8194 w[16]; rank 3 <- rank 2 tag 8196 w[16]\n"
	for _, engine := range []string{"interp", "compiled", "codegen"} {
		var out, errb bytes.Buffer
		code := run([]string{"-run", "-engine", engine, "-disable", "availability", "../../testdata/ysolve.hpf"}, &out, &errb)
		if code != 1 || errb.String() != want {
			t.Errorf("-engine %s: exit %d, stderr %q, want 1 and %q", engine, code, errb.String(), want)
		}
	}
}

// TestLint: -lint prints the verifier's report (clean for the shipped
// corpus, with the INFO re-proofs visible) and -json switches to the
// structured form.
func TestLint(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-lint", "../../testdata/ysolve.hpf"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "verify: clean") {
		t.Errorf("missing verdict in lint output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "INFO [comm]") {
		t.Errorf("lint output hides the availability re-proof:\n%s", out.String())
	}

	var jout bytes.Buffer
	if code := run([]string{"-lint", "-json", "../../testdata/ysolve.hpf"}, &jout, &errb); code != 0 {
		t.Fatalf("-json exit %d, stderr: %s", code, errb.String())
	}
	var rep struct {
		Diagnostics []map[string]any `json:"diagnostics"`
		Stmts       int              `json:"stmts"`
	}
	if err := json.Unmarshal(jout.Bytes(), &rep); err != nil {
		t.Fatalf("-json output not JSON: %v\n%s", err, jout.String())
	}
	if rep.Stmts == 0 || len(rep.Diagnostics) == 0 {
		t.Errorf("JSON report empty: %s", jout.String())
	}
}

// TestLintRankMismatch: an array subscripted with two different ranks is
// a compile error (exit 1, one line naming procedure, array and ranks);
// it used to panic in the set algebra under -lint.
func TestLintRankMismatch(t *testing.T) {
	src := filepath.Join(t.TempDir(), "ranks.hpf")
	if err := os.WriteFile(src, []byte(`
program ranks
param N = 16
!hpf$ processors procs(4)
!hpf$ template tm(N)
!hpf$ align b with tm(d0)
!hpf$ distribute tm(BLOCK) onto procs
subroutine main()
  real b(0:N-1)
  do i = 0, N-1
    b(i) = a(i,0)
    a(i) = 1.0
  enddo
end
`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-lint", src}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errb.String())
	}
	if want := `proc main: array "a" has rank 2`; !strings.Contains(errb.String(), want) || strings.Count(errb.String(), "\n") != 1 {
		t.Errorf("stderr = %q, want one line containing %q", errb.String(), want)
	}
}

// TestAnalyzeFlag: -analyze prints the static-analysis report — loop
// summaries, the verdict line and the cost oracle's prediction — and
// -json switches to the structured form with the shared diagnostic
// schema (code/severity/proc/stmt/message) and an exact cost block.
func TestAnalyzeFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-analyze", "../../testdata/ysolve.hpf"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	got := out.String()
	for _, want := range []string{"proc main", "phase", "flops", "analyze:", "predict (mp,"} {
		if !strings.Contains(got, want) {
			t.Errorf("analyze output missing %q:\n%s", want, got)
		}
	}

	var jout bytes.Buffer
	if code := run([]string{"-analyze", "-json", "../../testdata/ysolve.hpf"}, &jout, &errb); code != 0 {
		t.Fatalf("-json exit %d, stderr: %s", code, errb.String())
	}
	var rep struct {
		Clean  bool `json:"clean"`
		Procs  int  `json:"procs"`
		Phases int  `json:"phases"`
		Cost   *struct {
			Ranks int  `json:"ranks"`
			Exact bool `json:"exact"`
		} `json:"cost"`
		Diagnostics []map[string]any `json:"diagnostics"`
	}
	if err := json.Unmarshal(jout.Bytes(), &rep); err != nil {
		t.Fatalf("-json output not JSON: %v\n%s", err, jout.String())
	}
	if !rep.Clean || rep.Procs == 0 || rep.Phases == 0 {
		t.Errorf("JSON report incomplete: %s", jout.String())
	}
	if rep.Cost == nil || !rep.Cost.Exact || rep.Cost.Ranks != 4 {
		t.Errorf("JSON report missing exact cost: %s", jout.String())
	}
	for _, d := range rep.Diagnostics {
		for _, key := range []string{"code", "severity", "proc", "stmt", "message"} {
			if _, ok := d[key]; !ok {
				t.Errorf("diagnostic missing shared-schema key %q: %v", key, d)
			}
		}
	}
}

// TestIncrementalFlag: -incremental prints the warm recompile's output,
// which must be byte-identical to a plain compile; -stats adds the
// recompile delta and a pass table whose reused passes say "cached".
func TestIncrementalFlag(t *testing.T) {
	var plain, incr, errb bytes.Buffer
	if code := run([]string{"../../testdata/lhsy.hpf"}, &plain, &errb); code != 0 {
		t.Fatalf("plain exit %d: %s", code, errb.String())
	}
	if code := run([]string{"-incremental", "../../testdata/lhsy.hpf"}, &incr, &errb); code != 0 {
		t.Fatalf("-incremental exit %d: %s", code, errb.String())
	}
	if plain.String() != incr.String() {
		t.Errorf("-incremental report differs from plain compile:\n--- plain ---\n%s\n--- incremental ---\n%s",
			plain.String(), incr.String())
	}

	var stats bytes.Buffer
	if code := run([]string{"-incremental", "-stats", "../../testdata/lhsy.hpf"}, &stats, &errb); code != 0 {
		t.Fatalf("-incremental -stats exit %d: %s", code, errb.String())
	}
	got := stats.String()
	if !strings.HasPrefix(got, plain.String()) {
		t.Error("-stats altered the compile report itself")
	}
	if !strings.Contains(got, "incremental: 0/") || !strings.Contains(got, "artifacts reused") {
		t.Errorf("missing recompile delta in -stats output:\n%s", got)
	}
	if !strings.Contains(got, "cached") {
		t.Errorf("warm recompile pass table has no cached labels:\n%s", got)
	}

	errb.Reset()
	if code := run([]string{"-stats", "../../testdata/lhsy.hpf"}, &stats, &errb); code != 2 {
		t.Errorf("-stats without -incremental exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "-incremental") {
		t.Errorf("stderr = %q, want mention of -incremental", errb.String())
	}
}

// TestOptionSurface is the CLI third of the root package's test of the
// same name: every flag the FlagSet defines, read off the -h listing,
// against the shared golden.
func TestOptionSurface(t *testing.T) {
	golden, err := os.ReadFile("../../testdata/option_surface.golden")
	if err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-h"}, &out, &errb); code != 2 {
		t.Fatalf("-h exit = %d, want 2", code)
	}
	var flags []string
	for _, line := range strings.Split(errb.String(), "\n") {
		if name, ok := strings.CutPrefix(line, "  -"); ok {
			name, _, _ = strings.Cut(name, " ")
			flags = append(flags, "-"+name)
		}
	}
	section := "[dhpfc flags]\n" + strings.Join(flags, "\n") + "\n\n"
	if !strings.Contains(string(golden), section) {
		t.Errorf("flag surface changed; testdata/option_surface.golden does not contain:\n%s", section)
	}
}
