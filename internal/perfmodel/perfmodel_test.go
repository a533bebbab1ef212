package perfmodel

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"dhpf/internal/mpsim"
	"dhpf/internal/nas"
	"dhpf/internal/spmd"
)

// hand and pgi are the other two columns at one point, failing the test
// on an error.
func hand(t *testing.T, bench string, n, steps, p int) float64 {
	t.Helper()
	v, err := clockHand(bench, n, steps, p, mpsim.SP2Config(1))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func pgi(t *testing.T, bench string, n, steps, p int) float64 {
	t.Helper()
	v, err := clockPGI(bench, n, steps, p, mpsim.SP2Config(1))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// dhpf is the dHPF column at one point: the dry run on nas.GridShape(p)
// at grain 8, the tables' default.
func dhpf(t *testing.T, bench string, n, steps, p int) float64 {
	t.Helper()
	p1, p2 := nas.GridShape(p)
	v, _, err := DryRunDHPF(bench, n, steps, p1, p2, mpsim.SP2Config(1), 8)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestModelScalesDown(t *testing.T) {
	// More processors ⇒ less time, for every strategy (in the scaling
	// regime the paper covers).
	for _, bench := range []string{"sp", "bt"} {
		for name, col := range map[string]func(*testing.T, string, int, int, int) float64{"hand": hand, "dHPF": dhpf, "PGI": pgi} {
			prev := math.Inf(1)
			for _, p := range []int{4, 16} {
				v := col(t, bench, 64, 10, p)
				if v >= prev {
					t.Errorf("%s %s did not scale: %g at %d procs", bench, name, v, p)
				}
				prev = v
			}
		}
	}
}

// TestDryRunExtrapolation pins the tables' rule: every step after the
// first walks the same schedule, so a STEPS = 6 dry run is the one- and
// two-step runs extrapolated, T(2) + 4·(T(2) − T(1)), and the same holds
// for the idle times behind the idle share.
func TestDryRunExtrapolation(t *testing.T) {
	for _, c := range []struct {
		bench string
		n     int
	}{{"sp", 16}, {"bt", 12}} {
		source := nas.SPSource
		if c.bench == "bt" {
			source = nas.BTSource
		}
		opt := spmd.DefaultOptions()
		opt.PipelineGrain = 8
		prog, err := spmd.CompileSource(source(c.n, 6, 2, 2), nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		_, run, err := prog.DryRun(mpsim.SP2Config(4))
		if err != nil {
			t.Fatal(err)
		}
		secs, idle, err := DryRunDHPF(c.bench, c.n, 6, 2, 2, mpsim.SP2Config(1), 8)
		if err != nil {
			t.Fatal(err)
		}
		want := 0.0
		for _, i := range run.RankIdle {
			want = max(want, i)
		}
		if math.Abs(secs-run.Time) > 1e-12*run.Time || math.Abs(idle*secs-want) > 1e-12*run.Time {
			t.Errorf("%s%d: 6 steps dry-run to %v s (idle %v), extrapolated %v s (idle %v)",
				c.bench, c.n, run.Time, want, secs, idle*secs)
		}
	}
}

// TestHandExtrapolation holds the hand codes to the same rule as the
// dHPF column: a three-step run of either, without data, is its one- and
// two-step runs extrapolated, T(2) + (T(2) − T(1)), and so is every
// rank's idle time — at every table point and every point here but one.
// Multipartitioned 16³ on 16 ranks has cells 4 planes wide, and the last
// stage of every sweep holds one pivot where the others hold four; the
// skew the ranks carry from one step into the next settles only in the
// third step (SP) or the fourth (BT), so T(2) − T(1) is not yet the
// per-step cost.  Its relative error at three steps is pinned.
func TestHandExtrapolation(t *testing.T) {
	transient := map[string]float64{"multipart sp 16³ on 16": 4.984e-4, "multipart bt 16³ on 16": -3.418e-4}
	for _, bench := range []string{"sp", "bt"} {
		for _, n := range []int{12, 16} {
			for _, c := range []struct {
				code  string
				procs []int
				run   func(string, int, int, int, mpsim.Config) (*mpsim.Result, error)
			}{{"multipart", []int{4, 9, 16}, nas.ClockMultipart}, {"transpose", []int{2, 4, 8}, nas.ClockTranspose}} {
				for _, p := range c.procs {
					run := func(steps int) (*mpsim.Result, error) { return c.run(bench, n, steps, p, mpsim.SP2Config(p)) }
					three, err := run(3)
					if err != nil {
						t.Fatal(err)
					}
					secs, idle, err := extrapolate(3, run)
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("%s %s %d³ on %d", c.code, bench, n, p)
					if want, ok := transient[name]; ok {
						if rel := (secs - three.Time) / three.Time; math.Abs(rel-want) > 1e-6 {
							t.Errorf("%s: extrapolation off by %.4g, pinned %.4g", name, rel, want)
						}
						continue
					}
					if math.Abs(secs-three.Time) > 1e-12*three.Time || math.Abs(idle-slices.Max(three.RankIdle)) > 1e-12*three.Time {
						t.Errorf("%s: 3 steps run to %v s (idle %v), extrapolated %v s (idle %v)",
							name, three.Time, slices.Max(three.RankIdle), secs, idle)
					}
				}
			}
		}
	}
}

// TestPaperShapeHolds holds the paper's headline shape at 25 processors,
// Class A, on the three clocks.  Hand-MPI is fastest, as in the paper.
// The other two claims do not hold for the compiled code, whose
// wavefronts run block-serialized (EXPERIMENTS "Known divergences"), so
// the measured ordering is pinned instead: PGI beats dHPF (#4), and
// dHPF/hand exceeds 2 on SP and BT alike (#2).
func TestPaperShapeHolds(t *testing.T) {
	for _, bench := range []string{"sp", "bt"} {
		h := hand(t, bench, 64, 400, 25)
		d := dhpf(t, bench, 64, 400, 25)
		g := pgi(t, bench, 64, 400, 25)
		if !(h < g && h < d) {
			t.Errorf("%s: hand %g not fastest (dHPF %g, PGI %g)", bench, h, d, g)
		}
		if !(g < d) {
			t.Errorf("%s: PGI %g no longer beats dHPF %g: known divergence #4 closed?", bench, g, d)
		}
		if ratio := d / h; ratio <= 2 {
			t.Errorf("%s: dHPF/hand = %.2f: known divergence #2 (> 2 on both) changed", bench, ratio)
		}
	}
}

// The paper: BT's dHPF code is much closer to hand-MPI than SP's (15 %
// vs 33 %), because BT has ~5× more computation per communicated byte.
// Measured, the BT gap is the larger one (known divergence #2).
func TestBTCloserThanSP(t *testing.T) {
	gapSP := dhpf(t, "sp", 64, 400, 25)/hand(t, "sp", 64, 400, 25) - 1
	gapBT := dhpf(t, "bt", 64, 400, 25)/hand(t, "bt", 64, 400, 25) - 1
	if gapBT <= gapSP {
		t.Errorf("BT gap %.3f no longer above SP gap %.3f: known divergence #2 changed", gapBT, gapSP)
	}
}

// The paper (§8.1): larger problems amortize communication, so relative
// efficiency at 25 processors improves from Class A to Class B.
// Measured, it declines (known divergence #5).
func TestClassBScalesBetter(t *testing.T) {
	effAt := func(class nas.Class) float64 {
		return hand(t, "sp", class.N, 1, 25) / dhpf(t, "sp", class.N, 1, 25)
	}
	effA := effAt(nas.ClassA)
	effB := effAt(nas.ClassB)
	if effB >= effA {
		t.Errorf("efficiency A=%.3f B=%.3f no longer declines with class size: known divergence #5 closed?", effA, effB)
	}
}

func TestEfficiencyDeclinesWithScale(t *testing.T) {
	// Both HPF variants lose efficiency as ranks grow for a fixed size.
	eff := func(p int) float64 {
		return hand(t, "sp", 64, 1, p) / dhpf(t, "sp", 64, 1, p)
	}
	if !(eff(25) < eff(4)) {
		t.Errorf("dHPF efficiency did not decline: eff(4)=%.3f eff(25)=%.3f", eff(4), eff(25))
	}
}

func TestBuildTableConventions(t *testing.T) {
	tb, err := BuildTable("sp", nas.ClassA, PaperProcs["sp"], 4, mpsim.SP2Config(1), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != len(PaperProcs["sp"]) {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, r := range tb.Rows {
		if r.IdleDHPF <= 0 || r.IdleDHPF >= 1 {
			t.Errorf("idle share at %d procs = %g", r.Procs, r.IdleDHPF)
		}
		switch r.Procs {
		case 2, 8, 32:
			if !math.IsNaN(r.Hand) {
				t.Errorf("hand time at non-square %d should be NaN", r.Procs)
			}
		case 4:
			// By convention S.hand(4) = 4.
			if math.Abs(r.SpHand-4) > 1e-9 {
				t.Errorf("S.hand(4) = %g", r.SpHand)
			}
			if r.EffDHPF <= 0 || r.EffDHPF > 1.2 {
				t.Errorf("E.dHPF(4) = %g", r.EffDHPF)
			}
		case 25:
			// The paper has dHPF above PGI here; measured, it is below
			// (known divergence #4).
			if !(r.EffDHPF < r.EffPGI) {
				t.Errorf("at 25 procs dHPF efficiency %g no longer below PGI %g: known divergence #4 closed?", r.EffDHPF, r.EffPGI)
			}
		}
	}
	out := tb.Render()
	for _, want := range []string{"Class A", "S.dHPF", "E.PGI", "I.dHPF", "T(400) = T(2) + 398·(T(2) − T(1))"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// The paper: too fine a grain pays message overheads and too coarse a
// grain pays fill time, so an intermediate grain beats an extreme.
// Measured, the finest grain is fastest and every grain from 4 up runs
// the same schedule (known divergence #6): the strip loop is the
// innermost m, 2 or 3 components long.
func TestPipelineGrainTradeoff(t *testing.T) {
	at := func(g int) float64 {
		v, _, err := DryRunDHPF("sp", 64, 1, 4, 4, mpsim.SP2Config(1), g)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	fine, mid, coarse := at(1), at(8), at(62)
	if !(fine < mid && mid == coarse) {
		t.Errorf("grain 1 %g, 8 %g, 62 %g: known divergence #6 (1 fastest, 8 ≡ 62) changed", fine, mid, coarse)
	}
}

func TestBuildTableBTClassBConvention(t *testing.T) {
	// The paper's BT Class B speedups are relative to the 16-processor
	// hand-written run; BuildTable must honor an arbitrary base.
	tb, err := BuildTable("bt", nas.ClassB, []int{16, 25}, 16, mpsim.SP2Config(1), 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tb.Rows {
		if r.Procs == 16 && math.Abs(r.SpHand-16) > 1e-9 {
			t.Errorf("S.hand(16) = %g, want 16 by convention", r.SpHand)
		}
	}
}

// TestExplicitGridShape: the table's dHPF column is the dry run on
// nas.GridShape's most-square grid, and the grid is a real input of the
// dry run.
func TestExplicitGridShape(t *testing.T) {
	class := nas.Class{Name: "T", N: 24, Steps: 3}
	tb, err := BuildTable("sp", class, []int{16}, 16, mpsim.SP2Config(1), 8)
	if err != nil {
		t.Fatal(err)
	}
	sq, _, err := DryRunDHPF("sp", class.N, class.Steps, 4, 4, mpsim.SP2Config(1), 8)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows[0].DHPF != sq {
		t.Errorf("table row at 16 procs (%g) is not the 4x4 dry run (%g)", tb.Rows[0].DHPF, sq)
	}
	skew, _, err := DryRunDHPF("sp", class.N, class.Steps, 2, 8, mpsim.SP2Config(1), 8)
	if err != nil {
		t.Fatal(err)
	}
	if skew == sq {
		t.Error("2x8 grid dry-runs identical to 4x4 — shape ignored")
	}
}
