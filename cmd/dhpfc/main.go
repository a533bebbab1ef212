// Command dhpfc compiles a mini-HPF source file with the dhpf pipeline
// and reports the compiler's decisions: computation partitionings per
// statement, communication events (with §7 eliminations), and selection
// notes.  With -run it also executes the program on the simulated
// machine and prints performance counters (and optionally a space–time
// diagram).
//
// Usage:
//
//	dhpfc [flags] file.hpf
//
//	-run             execute on the simulated machine after compiling; a
//	                 program that deadlocks is one "dhpfc: deadlock: …"
//	                 line naming every rank's wait, and exit 1
//	-engine E        with -run: compiled (default) | interp | codegen —
//	                 the compiled execution engine (loop nests on the
//	                 in-process kernel evaluator), the reference
//	                 tree-walking interpreter, or native Go kernels (the
//	                 checked-in internal/codegen/gen corpus linked into
//	                 this binary; a unit outside it runs on the
//	                 evaluator, and the closing "kernels:" line says
//	                 which served each unit).  All engines produce
//	                 byte-identical results
//	-trace           with -run: print an ASCII space–time diagram
//	-bins N          diagram width in time bins (default 100)
//	-param NAME=V    override a program parameter (repeatable)
//	-newprop MODE    translate (default) | owner | replicate  (§4.1)
//	-backend B       execution substrate: mp (message-passing, default) |
//	                 shm (shared-memory threads, barrier phases in place
//	                 of messages) | hybrid (ranks across grid dim 0 ×
//	                 threads within a rank); shm/hybrid add the
//	                 race-freedom theorem to the verifier's obligations
//	-grain N         coarse-grain pipelining strip width (default 8)
//	-emit R          print the generated SPMD node program for rank R
//	-disable LIST    drop optional passes by name (comma-separated; -h
//	                 lists them) — the one way to turn an optimization
//	                 off: localize (§4.2), loopdist (§5), interproc (§6),
//	                 availability (§7), …
//	-explain         print the per-pass table: wall time, communication
//	                 volume after each pass (with deltas), and decisions
//	-incremental     compile through the per-procedure artifact store:
//	                 prime it cold, then recompile warm — the warm run
//	                 thaws every procedure's frozen selection, plans and
//	                 fragments, derives dependences only for a procedure
//	                 loop distribution splits, and its output (printed)
//	                 is byte-identical to the cold one
//	-stats           with -incremental: print the recompile delta and the
//	                 per-pass table (reused passes are labelled "cached")
//	-lint            run the translation validator and print its
//	                 diagnostics instead of the compile report; exit 1
//	                 when the program fails a safety obligation
//	-analyze         run the whole-program static analysis and print the
//	                 symbolic loop summaries, dataflow diagnostics and
//	                 predicted execution counters instead of the compile
//	                 report; exit 1 on an error-severity finding (a read
//	                 of never-defined distributed data)
//	-json            with -lint or -analyze: print the report as JSON
//
// A default compile already hard-fails when the verifier finds an error;
// -lint exists to *see* the diagnostics (including the INFO-level
// availability/redundancy re-proofs and privatization bail-outs) rather
// than just the first failure.  -analyze is the static-analysis
// counterpart: its diagnostics never fail a compile (dead stores and
// dead communication are program properties, not compiler bugs), so the
// flag is how they surface.  Both emit diagnostics in one shared JSON
// schema (code, severity, proc, stmt, message).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"dhpf"
	"dhpf/internal/cache"
	// The checked-in kernel corpus: -engine codegen runs these natively.
	_ "dhpf/internal/codegen/gen"
	"dhpf/internal/cp"
	"dhpf/internal/mpsim"
	"dhpf/internal/passes"
	"dhpf/internal/spmd"
	"dhpf/internal/trace"
)

type paramFlags map[string]int

func (p paramFlags) String() string { return fmt.Sprint(map[string]int(p)) }
func (p paramFlags) Set(v string) error {
	name, val, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want NAME=VALUE, got %q", v)
	}
	n, err := strconv.Atoi(val)
	if err != nil {
		return err
	}
	p[name] = n
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func sumInt64(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}

// compileOptions maps the option flags onto pipeline options.
func compileOptions(newprop, backend, disable string, grain int, instrument bool) (spmd.Options, error) {
	opt := spmd.DefaultOptions()
	opt.PipelineGrain = grain
	opt.Instrument = instrument
	var err error
	if opt.Backend, err = passes.ParseBackend(backend); err != nil {
		return opt, err
	}
	if disable != "" {
		opt.Disable = strings.Split(disable, ",")
	}
	switch newprop {
	case "translate":
		opt.CP.NewProp = cp.NewPropTranslate
	case "owner":
		opt.CP.NewProp = cp.NewPropOwner
	case "replicate":
		opt.CP.NewProp = cp.NewPropReplicate
	default:
		return opt, fmt.Errorf("unknown -newprop mode %q", newprop)
	}
	return opt, nil
}

// run is main with its environment made explicit, so tests can drive the
// CLI end to end.  Returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dhpfc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	params := paramFlags{}
	doRun := fs.Bool("run", false, "execute on the simulated machine")
	engineName := fs.String("engine", "", "execution engine: compiled|interp|codegen (with -run)")
	doTrace := fs.Bool("trace", false, "print a space-time diagram (with -run)")
	bins := fs.Int("bins", 100, "space-time diagram bins")
	newprop := fs.String("newprop", "translate", "NEW propagation mode: translate|owner|replicate")
	backend := fs.String("backend", "", "execution substrate: mp|shm|hybrid")
	grain := fs.Int("grain", 8, "pipeline strip width")
	emit := fs.Int("emit", -1, "emit the SPMD node program for this rank")
	disable := fs.String("disable", "", "comma-separated optional passes to drop "+
		fmt.Sprintf("(%s)", strings.Join(passes.OptionalPassNames(), ",")))
	explain := fs.Bool("explain", false, "print the per-pass instrumentation table")
	incremental := fs.Bool("incremental", false, "compile via the artifact store (cold prime + warm recompile)")
	stats := fs.Bool("stats", false, "with -incremental: print the recompile delta and pass table")
	lint := fs.Bool("lint", false, "print verifier diagnostics; exit 1 on safety errors")
	analyze := fs.Bool("analyze", false, "print the static-analysis report; exit 1 on error findings")
	asJSON := fs.Bool("json", false, "with -lint or -analyze: print the report as JSON")
	fs.Var(params, "param", "override a program parameter NAME=VALUE")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: dhpfc [flags] file.hpf")
		fs.PrintDefaults()
		return 2
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "dhpfc:", err)
		return 1
	}

	opt, err := compileOptions(*newprop, *backend, *disable, *grain, *explain)
	if err != nil {
		fmt.Fprintln(stderr, "dhpfc:", err)
		return 1
	}

	if *lint {
		// Drop the in-pipeline verify pass so an unsafe program still
		// compiles; the explicit Verify call below turns its failures
		// into printed diagnostics instead of a compile error.
		opt.Disable = append(opt.Disable, passes.PassVerify)
	}
	if *analyze {
		// The in-pipeline analyze pass never fails a compile, so dropping
		// it is just avoiding duplicate work: the explicit Analyze call
		// below recomputes the same facts for printing.
		opt.Disable = append(opt.Disable, passes.PassAnalyze)
	}

	if *stats && !*incremental {
		fmt.Fprintln(stderr, "dhpfc: -stats requires -incremental")
		return 2
	}

	var prog *spmd.Program
	var delta *passes.Delta
	if *incremental {
		// Prime the artifact store with a cold compile, then recompile
		// warm: the warm run thaws every procedure's frozen artifacts and
		// is the compile whose (byte-identical) output gets printed.
		store := cache.NewArtifactStore(0)
		if _, _, err = spmd.CompileIncremental(string(src), params, opt, store); err == nil {
			prog, delta, err = spmd.CompileIncremental(string(src), params, opt, store)
		}
	} else {
		prog, err = spmd.CompileSource(string(src), params, opt)
	}
	if err != nil {
		fmt.Fprintln(stderr, "dhpfc:", err)
		return 1
	}

	if *lint {
		rep, err := prog.Verify()
		if err != nil {
			fmt.Fprintln(stderr, "dhpfc:", err)
			return 1
		}
		if *asJSON {
			fmt.Fprintln(stdout, rep.JSON())
		} else {
			fmt.Fprint(stdout, rep.String())
		}
		if !rep.Clean() {
			return 1
		}
		return 0
	}

	if *analyze {
		res, err := prog.Analyze()
		if err != nil {
			fmt.Fprintln(stderr, "dhpfc:", err)
			return 1
		}
		cost, err := prog.PredictCost()
		if err != nil {
			fmt.Fprintln(stderr, "dhpfc:", err)
			return 1
		}
		rep := dhpf.AnalyzeReportJSON(res, cost)
		if *asJSON {
			out, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				fmt.Fprintln(stderr, "dhpfc:", err)
				return 1
			}
			fmt.Fprintln(stdout, string(out))
		} else {
			fmt.Fprint(stdout, rep.Text)
			fmt.Fprintln(stdout, rep.Summary)
			fmt.Fprintf(stdout, "predict (%s, %d ranks): %.0f flops, %d messages, %d bytes",
				cost.Backend, cost.Ranks, cost.TotalFlops(), cost.TotalMessages(), cost.TotalBytes())
			if cost.Backend != "mp" {
				fmt.Fprintf(stdout, ", %d pulls, %d pulled bytes, %d barriers",
					sumInt64(cost.Pulls), cost.TotalPulled(), cost.Barriers)
			}
			fmt.Fprintln(stdout)
		}
		if !rep.Clean {
			return 1
		}
		return 0
	}
	fmt.Fprint(stdout, prog.Report())

	if *explain {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, passes.StatsTable(prog.PassStats()))
	}

	if *stats {
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, delta)
		if !*explain {
			fmt.Fprint(stdout, passes.StatsTable(prog.PassStats()))
		}
	}

	if *emit >= 0 {
		if ranks := prog.Grid.Size(); *emit >= ranks {
			fmt.Fprintf(stderr, "dhpfc: -emit %d: program has %d ranks (0..%d)\n", *emit, ranks, ranks-1)
			return 1
		}
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, prog.EmitNodeProgram(*emit))
	}

	if !*doRun {
		return 0
	}
	engine, err := spmd.ParseEngine(*engineName)
	if err != nil {
		fmt.Fprintln(stderr, "dhpfc:", err)
		return 1
	}
	cfg := mpsim.SP2Config(prog.Grid.Size())
	cfg.Trace = *doTrace
	res, err := prog.ExecuteEngine(cfg, engine)
	if err != nil {
		fmt.Fprintln(stderr, "dhpfc:", err)
		return 1
	}
	switch {
	case res.Shm != nil && res.Shm.Groups > 1:
		fmt.Fprintf(stdout, "\nexecution (hybrid, %d groups): %d threads, %.6fs virtual time, %d pulls, %d pulled bytes, %d outer messages, %d outer bytes\n",
			res.Shm.Groups, prog.Grid.Size(), res.Machine.Time,
			res.Shm.TotalPulls(), res.Shm.TotalPulledBytes(),
			res.Machine.TotalMessages(), res.Machine.TotalBytes())
	case res.Shm != nil:
		fmt.Fprintf(stdout, "\nexecution (shm): %d threads, %.6fs virtual time, %d pulls, %d pulled bytes\n",
			prog.Grid.Size(), res.Machine.Time, res.Shm.TotalPulls(), res.Shm.TotalPulledBytes())
	default:
		fmt.Fprintf(stdout, "\nexecution: %d ranks, %.6fs virtual time, %d messages, %d bytes\n",
			prog.Grid.Size(), res.Machine.Time, res.Machine.TotalMessages(), res.Machine.TotalBytes())
	}
	// What the run computed of its schedule rather than found memoized.
	fmt.Fprintln(stdout, res.Plans.String())
	if res.Nests.Walked > 0 || res.Nests.Declined > 0 {
		// What a compiled engine left to the interpreter, at several times
		// the cost of a kernel unit: the only place a slow default run shows.
		fmt.Fprintln(stdout, res.Nests.String())
	}
	if engine == spmd.EngineCodegen {
		// Which tier actually served the run: a bail is never an error,
		// so this line is the only place a slow native run shows.
		fmt.Fprintln(stdout, res.Kernels.String())
	}
	if *doTrace {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, trace.Build(res.Machine, *bins).Render(fs.Arg(0)))
		s := trace.Summarize(res.Machine)
		fmt.Fprintf(stdout, "mean compute %.0f%%  comm %.0f%%  idle %.0f%%  load imbalance %.1f%%\n",
			100*s.MeanCompute, 100*s.MeanComm, 100*s.MeanIdle, 100*s.LoadImbalance)
	}
	return 0
}
