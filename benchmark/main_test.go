package main

import (
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestMedianAndHighPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
	// 100 samples 1..100: the highest value with ten samples beyond it
	// is 90, the 90th percentile.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	v, share := highPercentile(xs)
	if v != 90 || share != 0.9 {
		t.Errorf("highPercentile = %v at %v, want 90 at 0.9", v, share)
	}
	// Too few samples for any tail: the median, and it says so.
	v, share = highPercentile([]float64{1, 2, 3, 4, 5})
	if v != 3 || share != 0.5 {
		t.Errorf("short highPercentile = %v at %v, want the median", v, share)
	}
	if got := blockSpread([]float64{10, 12, 11, 9, 10}); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("blockSpread = %v, want 0.3", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	ms := func(x float64) int64 { return int64(x * 1e6) }
	tr := newTracer("t")
	tr.spans = []span{
		{ID: 1, Name: "harness.op", Op: 0, StartNS: 0, EndNS: ms(10)},
		{ID: 2, Parent: 1, Name: "passes.parse", Op: 0, StartNS: ms(1), EndNS: ms(4)},
		{ID: 3, Parent: 1, Name: "spmd.emit", Op: 0, StartNS: ms(4), EndNS: ms(9)},
		{ID: 4, Parent: 3, Name: "spmd.inner", Op: 0, StartNS: ms(5), EndNS: ms(6)},
		{ID: 5, Name: "harness.op", Op: 1, StartNS: ms(10), EndNS: ms(20)},
		{ID: 6, Parent: 5, Name: "passes.parse", Op: 1, StartNS: ms(10), EndNS: ms(15)},
		{ID: 7, Parent: 5, Name: "passes.parse", Op: 1, StartNS: ms(15), EndNS: ms(16)},
	}
	self := selfMS(tr.spans)
	for id, want := range map[int]float64{1: 2, 2: 3, 3: 4, 4: 1, 5: 4} {
		if math.Abs(self[id]-want) > 1e-9 {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	// Children cover 8 of op 0's 10 ms and 6 of op 1's.
	if got := rootCoverage(tr.spans); math.Abs(got-0.7) > 1e-9 {
		t.Errorf("rootCoverage = %v, want 0.7", got)
	}
	// perOp sums a name within an op and scales by the op's speed.
	tr.setSpeed(1, 0.5)
	got := sorted(tr.perOp("passes.parse"))
	if len(got) != 2 || math.Abs(got[0]-3) > 1e-9 || math.Abs(got[1]-3) > 1e-9 {
		t.Errorf("perOp = %v, want [3 3] (op 1: 6 ms × 0.5)", got)
	}
}

func TestGenerators(t *testing.T) {
	draw := func(seed int64, lane, lanes, n int) []string {
		s := newEditStream(seed, lane, lanes)
		out := make([]string, n)
		for i := range out {
			out[i] = s.next()
		}
		return out
	}
	a, b := draw(7, 0, 2, 2000), draw(7, 0, 2, 2000)
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Fatal("same seed drew different constants")
	}
	if other := draw(8, 0, 2, 2000); strings.Join(a, ",") == strings.Join(other, ",") {
		t.Fatal("different seeds drew the same constants")
	}
	seen := map[string]bool{}
	for _, c := range append(a, draw(7, 1, 2, 2000)...) {
		if seen[c] {
			t.Fatalf("constant %s drawn twice in one run", c)
		}
		seen[c] = true
		if len(c) != len("0.1000001") || c[len(c)-1] == '0' {
			t.Fatalf("constant %q is not fixed-width with a non-zero last digit", c)
		}
	}
	// Every source of the rounds takes the edit, at one place, and two
	// edits of one source differ only there.
	for _, p := range coldRound() {
		x, err := edit(p.base, a[0])
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		y, _ := edit(p.base, a[1])
		if x == p.base || x == y || len(x) != len(y) {
			t.Errorf("%s: edits do not produce distinct sources of equal length", p.name)
		}
		if again, _ := edit(p.base, a[0]); again != x {
			t.Errorf("%s: same constant, different source", p.name)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSON: the committed BENCHMARK.json is what -describe
// prints, and stays inside the driver's limits.
func TestBenchmarkJSON(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(committed)) != benchmarkJSON() {
		t.Error("BENCHMARK.json differs from `dhpfbench -describe`; regenerate it")
	}
	if len(committed) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(committed))
	}
	used := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if used[n] {
			t.Errorf("name %q is used twice", n)
		}
		used[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range workloads {
		name(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, is %d", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	layers := allLayerDefs()
	if len(endToEnd) > 16 || len(layers) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, limits are 16 and 128", len(endToEnd), len(layers))
	}
	for _, l := range layers {
		name(l.Name)
		if l.Better != "lower" && l.Better != "higher" {
			t.Errorf("%s: better = %q", l.Name, l.Better)
		}
	}
}

// TestQuickRun runs the whole harness at 1/20 of the op counts: every
// declared metric is emitted and nothing else, no op fails, and two runs
// agree exactly on the exact metrics.
func TestQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	e := env{seed: 3, scale: 1.0 / quickDivisor, setupReps: 1, tmp: t.TempDir()}
	limit := time.Minute
	var first map[string]*result
	for pass := 0; pass < 2; pass++ {
		got := map[string]*result{}
		for _, w := range workloads {
			res, err := measure(w, e, limit)
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct() {
				t.Fatalf("%s: %d of %d ops failed: %v", w.name, res.failed, res.attempted, res.firstErr)
			}
			if len(res.metrics) != len(endToEnd) {
				t.Errorf("%s: %d metrics emitted, %d declared", w.name, len(res.metrics), len(endToEnd))
			}
			for _, m := range endToEnd {
				if v, ok := res.metrics[m.Name]; !ok || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: metric %s = %v (emitted %v), want a positive number", w.name, m.Name, v, ok)
				}
			}
			got[w.name] = res
		}
		if first == nil {
			first = got
			continue
		}
		for _, w := range workloads {
			for _, m := range endToEnd {
				a, b := first[w.name].metrics[m.Name], got[w.name].metrics[m.Name]
				if m.exact && math.Float64bits(a) != math.Float64bits(b) {
					t.Errorf("%s: exact metric %s differs between two runs: %v vs %v", w.name, m.Name, a, b)
				}
			}
		}
	}

	// A different seed changes the inputs and none of the virtual
	// quantities.
	e.seed = 4
	for _, w := range []workload{compileCold, serveSession} {
		res, err := measure(w, e, limit)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range endToEnd {
			if a, b := first[w.name].metrics[m.Name], res.metrics[m.Name]; m.exact && a != b {
				t.Errorf("%s: %s moved with the seed: %v vs %v", w.name, m.Name, a, b)
			}
		}
	}

	out := t.TempDir()
	traced, err := measureLayers([]workload{execNative}, workloads, e, limit, out)
	if err != nil {
		t.Fatal(err)
	}
	res := traced[0]
	if !res.correct() {
		t.Fatalf("traced run: %d of %d ops failed: %v", res.failed, res.attempted, res.firstErr)
	}
	declared := map[string]bool{}
	for _, l := range allLayerDefs() {
		declared[l.Name] = true
		if v, ok := res.metrics[l.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("layer metric %s = %v (emitted %v)", l.Name, v, ok)
		}
	}
	for name := range res.metrics {
		if !declared[name] {
			t.Errorf("layer metric %s is emitted but not declared", name)
		}
	}
	if got, want := res.metrics["spmd.kernels_registered"], res.metrics["spmd.kernel_units"]; got != want || got == 0 {
		t.Errorf("%v of %v kernel units have a registered kernel", got, want)
	}
	if res.metrics["spmd.kernel_calls_per_op"] <= 0 {
		t.Error("exec-native ran no kernel natively")
	}
	if c := res.metrics["trace.compile_coverage"]; c < 0.95 {
		t.Errorf("compile-cold spans cover %.3f of the traced op, want ≥ 0.95", c)
	}
	if _, err := os.Stat(out + "/trace-exec-native.json"); err != nil {
		t.Errorf("trace not written: %v", err)
	}
}
