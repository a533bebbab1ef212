// Command benchjson runs the execution-engine, incremental-compile and
// durable-store benchmark set and emits a machine-readable summary
// (BENCH_13.json).  Five pairings are reported:
//
//   - engine pairs: each benchmark family has a compiled variant and an
//     Interp-suffixed interpreter variant over the same workload
//     (bench_test.go routes both through the same body via
//     Program.ExecuteEngine), and the tool reports the speedup of the
//     default compiled engine over the tree-walking interpreter; -check
//     gates it at 5x on the SP step, where the kernel evaluator does
//     nearly all the work, and at > 1x elsewhere;
//   - warm/cold pairs: each recompile benchmark against its
//     Cold-suffixed from-scratch twin, compared at the p50_ns metric
//     the benchmarks report (medians, because compile times are
//     long-tailed under GC and scheduler noise).  Reported, not gated: a
//     ratio against the cold side fails whenever the compiler itself gets
//     faster, and what it stood for — a one-procedure edit does no pass
//     work for clean procedures — is a tier-1 assertion
//     (TestIncrementalEditDoesNoCleanPassWork).  Two families:
//     BenchmarkWarmEditRecompile (one-procedure edit against a primed
//     artifact store) and BenchmarkRestartWarmCompile (a freshly
//     restarted server serving a known fingerprint from its durable
//     store, in internal/service);
//   - backend pairs: each Shm-suffixed benchmark against its
//     message-passing base name (BenchmarkExecuteSPStepShm vs
//     BenchmarkExecuteSPStep).  Both backends run the same kernel
//     units over the same data, so their host times must stay within
//     a small band of each other — a large divergence means one
//     substrate grew an accidental hot path;
//   - codegen pairs: each Codegen-suffixed benchmark against its
//     default-engine base name.  Both run the same kernel units behind
//     the same precheck — emitted flat-loop kernels against the
//     in-process evaluator — at bit-identical results (the parity suite
//     enforces identity), and -check requires the emitted code to stay
//     1.5x ahead.  Two pairs, one SP and one BT step: BT's flops sit in
//     LOCALIZE nests SP barely has, so each pair can fall back to
//     evaluator speed without the other.
//
// Usage:
//
//	go run ./tools/benchjson [flags]
//
//	-bench RE     benchmark selection regexp (default the ExecuteSPStep,
//	              ExecuteBTStep, LUWavefront, WarmEditRecompile and
//	              RestartWarm families)
//	-benchtime T  passed through to go test (default 1x per bench: "2s")
//	-o FILE       write JSON here (default BENCH_13.json; "-" = stdout)
//	-check        gate mode: exit 1 unless the compiled engine beats the
//	              interpreter on every engine pair (by 5x on the SP
//	              step) AND every shm/mp backend pair stays within the
//	              host-time band AND every codegen pair is at least 1.5x
//	              faster than the default engine (CI smoke; uses a short
//	              -benchtime unless given)
//
// Stdlib-only by design, like tools/vetdet: the container has no
// golang.org/x/perf, so the benchmark output is parsed directly.  The
// parser understands the standard `name iters value unit ...` line
// shape including custom ReportMetric columns (virtual_ms).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// Bench is one parsed benchmark result line.
type Bench struct {
	Name        string  `json:"name"`
	Iters       int64   `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// VirtualMs is the simulated-machine makespan reported by the LU
	// wavefront benchmarks; identical across engines by construction
	// (the differential suite enforces it), so a mismatch here means
	// the engines diverged.
	VirtualMs float64 `json:"virtual_ms,omitempty"`
	// P50Ns is the median per-iteration wall time reported by the
	// recompile benchmarks, which gate on medians rather than means.
	P50Ns float64 `json:"p50_ns,omitempty"`
}

// Pair is a compiled benchmark matched with its Interp-suffixed oracle.
type Pair struct {
	Benchmark     string  `json:"benchmark"`
	CompiledNs    float64 `json:"compiled_ns_per_op"`
	InterpNs      float64 `json:"interp_ns_per_op"`
	Speedup       float64 `json:"speedup"`
	CompiledAlloc float64 `json:"compiled_allocs_per_op"`
	InterpAlloc   float64 `json:"interp_allocs_per_op"`
	AllocRatio    float64 `json:"alloc_ratio"`
}

// WarmPair is a warm-edit recompile benchmark matched with its
// Cold-suffixed from-scratch twin, compared at p50.
type WarmPair struct {
	Benchmark string  `json:"benchmark"`
	WarmP50Ns float64 `json:"warm_p50_ns"`
	ColdP50Ns float64 `json:"cold_p50_ns"`
	Speedup   float64 `json:"speedup"`
}

// BackendPair is a Shm-suffixed benchmark matched with its
// message-passing base, compared at host ns/op.
type BackendPair struct {
	Benchmark string  `json:"benchmark"`
	MpNs      float64 `json:"mp_ns_per_op"`
	ShmNs     float64 `json:"shm_ns_per_op"`
	Ratio     float64 `json:"mp_over_shm"`
}

// CodegenPair is a Codegen-suffixed benchmark matched with its
// default-engine base, compared at host ns/op.
type CodegenPair struct {
	Benchmark  string  `json:"benchmark"`
	CompiledNs float64 `json:"compiled_ns_per_op"`
	CodegenNs  float64 `json:"codegen_ns_per_op"`
	Speedup    float64 `json:"speedup"`
}

// backendBand is the -check tolerance for the shm/mp host-time ratio:
// the pair must land in [1/backendBand, backendBand].
const backendBand = 3.0

// codegenGate is the -check floor for the native tier: emitted kernels
// must beat the default engine's evaluator, which runs the same units
// behind the same precheck, by at least this much on every pair
// (measured 2.7x on SP and 3.5x on BT, single samples on a box whose
// speed flips 1.5–1.8x).
const codegenGate = 1.5

// evalGate is the -check floor for the default engine over the
// interpreter on the SP step, where kernel units hold nearly every flop
// (measured ≈ 22x).  It is also the stated cost of the slow path: what a
// declined nest or a bailed invocation pays.  Other engine pairs only
// have to beat the interpreter.
const (
	evalGate      = 5.0
	evalGateBench = "BenchmarkExecuteSPStep"
)

// Report is the BENCH_13.json document.
type Report struct {
	GoTestArgs   []string      `json:"go_test_args"`
	Benchmarks   []Bench       `json:"benchmarks"`
	Pairs        []Pair        `json:"pairs"`
	WarmPairs    []WarmPair    `json:"warm_pairs,omitempty"`
	BackendPairs []BackendPair `json:"backend_pairs,omitempty"`
	CodegenPairs []CodegenPair `json:"codegen_pairs,omitempty"`
}

func main() {
	benchRE := flag.String("bench", "BenchmarkExecuteSPStep|BenchmarkExecuteBTStep|BenchmarkLUWavefront|BenchmarkWarmEditRecompile|BenchmarkRestartWarm",
		"benchmark selection regexp (go test -bench)")
	benchtime := flag.String("benchtime", "", "go test -benchtime (default 2s, or 40x with -check)")
	out := flag.String("o", "BENCH_13.json", `output file ("-" for stdout)`)
	check := flag.Bool("check", false, "exit 1 unless every gated ratio holds (see the package comment)")
	flag.Parse()

	bt := *benchtime
	if bt == "" {
		if *check {
			// Enough iterations for a stable p50 on the recompile
			// benchmarks while keeping the engine families quick.
			bt = "40x"
		} else {
			bt = "2s"
		}
	}
	// The benchmark families live in two packages: the root (engines,
	// warm-edit recompiles) and internal/service (restart-warm store hits).
	args := []string{"test", "-run", "NONE", "-bench", *benchRE, "-benchmem", "-benchtime", bt, ".", "./internal/service"}
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: go %s: %v\n%s", strings.Join(args, " "), err, raw)
		os.Exit(2)
	}

	rep := Report{GoTestArgs: args}
	for _, line := range strings.Split(string(raw), "\n") {
		b, ok := parseLine(line)
		if ok {
			rep.Benchmarks = append(rep.Benchmarks, b)
		}
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: no benchmark lines in go test output:\n%s", raw)
		os.Exit(2)
	}
	rep.Pairs = pairUp(rep.Benchmarks)
	rep.WarmPairs = pairWarm(rep.Benchmarks)
	rep.BackendPairs = pairBackends(rep.Benchmarks)
	rep.CodegenPairs = pairCodegen(rep.Benchmarks)

	js, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
	js = append(js, '\n')
	if *out == "-" {
		os.Stdout.Write(js)
	} else if err := os.WriteFile(*out, js, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}

	if *check {
		fail := false
		for _, p := range rep.Pairs {
			floor := 1.0
			if p.Benchmark == evalGateBench {
				floor = evalGate
			}
			if p.Speedup <= 1 || p.Speedup < floor {
				fmt.Fprintf(os.Stderr, "benchjson: FAIL %s: compiled %.0f ns/op only %.2fx faster than interp %.0f ns/op (gate %.0fx)\n",
					p.Benchmark, p.CompiledNs, p.Speedup, p.InterpNs, floor)
				fail = true
			}
		}
		if len(rep.Pairs) == 0 {
			fmt.Fprintln(os.Stderr, "benchjson: -check found no compiled/interp pairs")
			fail = true
		}
		for _, bp := range rep.BackendPairs {
			if bp.Ratio < 1/backendBand || bp.Ratio > backendBand {
				fmt.Fprintf(os.Stderr, "benchjson: FAIL %s: shm %.0f ns/op vs mp %.0f ns/op (ratio %.2f outside [%.2f, %.0f])\n",
					bp.Benchmark, bp.ShmNs, bp.MpNs, bp.Ratio, 1/backendBand, backendBand)
				fail = true
			}
		}
		if strings.Contains(*benchRE, "ExecuteSPStep") && len(rep.BackendPairs) == 0 {
			fmt.Fprintln(os.Stderr, "benchjson: -check found no shm/mp backend pair")
			fail = true
		}
		for _, cg := range rep.CodegenPairs {
			if cg.Speedup < codegenGate {
				fmt.Fprintf(os.Stderr, "benchjson: FAIL %s: codegen %.0f ns/op only %.2fx faster than compiled %.0f ns/op (gate %.1fx)\n",
					cg.Benchmark, cg.CodegenNs, cg.Speedup, cg.CompiledNs, codegenGate)
				fail = true
			}
		}
		// Every step family in the selection must bring its own gated
		// pair: SP's ratio says nothing about BT's LOCALIZE nests.
		for _, step := range []string{"ExecuteSPStep", "ExecuteBTStep"} {
			if strings.Contains(*benchRE, step) && !hasCodegenPair(rep.CodegenPairs, "Benchmark"+step) {
				fmt.Fprintf(os.Stderr, "benchjson: -check found no codegen/compiled pair for %s\n", step)
				fail = true
			}
		}
		if fail {
			os.Exit(1)
		}
	}
	for _, p := range rep.Pairs {
		fmt.Fprintf(os.Stderr, "benchjson: %s speedup %.2fx (allocs %.0f -> %.0f)\n",
			p.Benchmark, p.Speedup, p.InterpAlloc, p.CompiledAlloc)
	}
	for _, w := range rep.WarmPairs {
		fmt.Fprintf(os.Stderr, "benchjson: %s warm-edit speedup %.2fx (p50 %.0f ns vs cold %.0f ns)\n",
			w.Benchmark, w.Speedup, w.WarmP50Ns, w.ColdP50Ns)
	}
	for _, bp := range rep.BackendPairs {
		fmt.Fprintf(os.Stderr, "benchjson: %s mp/shm host-time ratio %.2f (mp %.0f ns, shm %.0f ns)\n",
			bp.Benchmark, bp.Ratio, bp.MpNs, bp.ShmNs)
	}
	for _, cg := range rep.CodegenPairs {
		fmt.Fprintf(os.Stderr, "benchjson: %s codegen speedup %.2fx (%.0f ns vs compiled %.0f ns)\n",
			cg.Benchmark, cg.Speedup, cg.CodegenNs, cg.CompiledNs)
	}
}

// parseLine parses one `BenchmarkName-N  iters  v unit  v unit ...`
// result line; returns ok=false for everything else (headers, PASS,
// ok-lines).
func parseLine(line string) (Bench, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return Bench{}, false
	}
	name, _, _ := strings.Cut(f[0], "-") // strip -GOMAXPROCS
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Bench{}, false
	}
	b := Bench{Name: name, Iters: iters}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Bench{}, false
		}
		switch f[i+1] {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		case "virtual_ms":
			b.VirtualMs = v
		case "p50_ns":
			b.P50Ns = v
		}
	}
	return b, b.NsPerOp > 0
}

// pairUp matches each benchmark with its Interp-suffixed counterpart,
// preserving the order benchmarks appeared in.
func pairUp(bs []Bench) []Pair {
	byName := make(map[string]Bench, len(bs))
	for _, b := range bs {
		byName[b.Name] = b
	}
	var pairs []Pair
	for _, b := range bs {
		if strings.HasSuffix(b.Name, "Interp") {
			continue
		}
		in, ok := byName[b.Name+"Interp"]
		if !ok {
			continue
		}
		p := Pair{
			Benchmark:     b.Name,
			CompiledNs:    b.NsPerOp,
			InterpNs:      in.NsPerOp,
			CompiledAlloc: b.AllocsPerOp,
			InterpAlloc:   in.AllocsPerOp,
		}
		if b.NsPerOp > 0 {
			p.Speedup = in.NsPerOp / b.NsPerOp
		}
		if b.AllocsPerOp > 0 {
			p.AllocRatio = in.AllocsPerOp / b.AllocsPerOp
		}
		pairs = append(pairs, p)
	}
	return pairs
}

// pairBackends matches each Shm-suffixed benchmark with its
// message-passing base name.
func pairBackends(bs []Bench) []BackendPair {
	byName := make(map[string]Bench, len(bs))
	for _, b := range bs {
		byName[b.Name] = b
	}
	var pairs []BackendPair
	for _, b := range bs {
		if !strings.HasSuffix(b.Name, "Shm") {
			continue
		}
		mp, ok := byName[strings.TrimSuffix(b.Name, "Shm")]
		if !ok || mp.NsPerOp <= 0 {
			continue
		}
		pairs = append(pairs, BackendPair{
			Benchmark: strings.TrimSuffix(b.Name, "Shm"),
			MpNs:      mp.NsPerOp,
			ShmNs:     b.NsPerOp,
			Ratio:     mp.NsPerOp / b.NsPerOp,
		})
	}
	return pairs
}

// pairCodegen matches each Codegen-suffixed benchmark with its
// default-engine base name.
func pairCodegen(bs []Bench) []CodegenPair {
	byName := make(map[string]Bench, len(bs))
	for _, b := range bs {
		byName[b.Name] = b
	}
	var pairs []CodegenPair
	for _, b := range bs {
		if !strings.HasSuffix(b.Name, "Codegen") {
			continue
		}
		base, ok := byName[strings.TrimSuffix(b.Name, "Codegen")]
		if !ok || b.NsPerOp <= 0 {
			continue
		}
		pairs = append(pairs, CodegenPair{
			Benchmark:  strings.TrimSuffix(b.Name, "Codegen"),
			CompiledNs: base.NsPerOp,
			CodegenNs:  b.NsPerOp,
			Speedup:    base.NsPerOp / b.NsPerOp,
		})
	}
	return pairs
}

func hasCodegenPair(pairs []CodegenPair, benchmark string) bool {
	for _, p := range pairs {
		if p.Benchmark == benchmark {
			return true
		}
	}
	return false
}

// pairWarm matches each recompile benchmark with its Cold-suffixed
// from-scratch twin and compares medians.
func pairWarm(bs []Bench) []WarmPair {
	byName := make(map[string]Bench, len(bs))
	for _, b := range bs {
		byName[b.Name] = b
	}
	var pairs []WarmPair
	for _, b := range bs {
		if strings.HasSuffix(b.Name, "Cold") || b.P50Ns <= 0 {
			continue
		}
		cold, ok := byName[b.Name+"Cold"]
		if !ok || cold.P50Ns <= 0 {
			continue
		}
		pairs = append(pairs, WarmPair{
			Benchmark: b.Name,
			WarmP50Ns: b.P50Ns,
			ColdP50Ns: cold.P50Ns,
			Speedup:   cold.P50Ns / b.P50Ns,
		})
	}
	return pairs
}
