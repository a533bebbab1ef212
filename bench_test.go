package dhpf

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (§8):
//
//	BenchmarkTable81SP / BenchmarkTable82BT  — the Class A/B comparison
//	    tables (hand-MPI vs dHPF vs PGI), every column the simulator's
//	    clock at the class size (run cmd/nasbench to print the full
//	    rows);
//	BenchmarkFigure81..84 — the 16-processor space–time traces;
//	BenchmarkAblation*    — the design-choice ablations DESIGN.md lists;
//	Benchmark<micro>      — substrate micro-benchmarks.
//
// Reported custom metrics carry the paper's headline quantities, e.g.
// dhpf_vs_hand(x) is the dHPF/hand-MPI execution-time ratio at 25
// processors (the paper: ≤1.33 for SP, ≤1.15 for BT).

import (
	"fmt"
	"strings"
	"testing"

	"dhpf/internal/cp"
	"dhpf/internal/iset"
	"dhpf/internal/mpsim"
	"dhpf/internal/nas"
	"dhpf/internal/perfmodel"
	"dhpf/internal/spmd"
	"dhpf/internal/trace"
)

// --- Tables 8.1 and 8.2 ------------------------------------------------------

func benchTable(b *testing.B, bench string) {
	var lastRatio25 float64
	for i := 0; i < b.N; i++ {
		for _, class := range []nas.Class{nas.ClassA, nas.ClassB} {
			tb, err := perfmodel.BuildTable(bench, class, perfmodel.PaperProcs[bench], 4, mpsim.SP2Config(1), 8)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Log("\n" + tb.Render())
			}
			if class.Name == "A" {
				for _, r := range tb.Rows {
					if r.Procs == 25 {
						lastRatio25 = r.DHPF / r.Hand
					}
				}
			}
		}
	}
	b.ReportMetric(lastRatio25, "dhpf_vs_hand_25p")
}

// BenchmarkTable81SP regenerates Table 8.1 (SP Class A and B).
func BenchmarkTable81SP(b *testing.B) { benchTable(b, "sp") }

// BenchmarkTable82BT regenerates Table 8.2 (BT Class A and B).
func BenchmarkTable82BT(b *testing.B) { benchTable(b, "bt") }

// BenchmarkTableMeasuredSP backs the projection with a full simulated
// run of all three SP implementations at a reduced size on 4 ranks.
func BenchmarkTableMeasuredSP(b *testing.B) {
	n, steps, procs := 16, 1, 4
	var hand, dhpfT, pgi float64
	for i := 0; i < b.N; i++ {
		mp, err := nas.RunMultipart("sp", n, steps, procs, mpsim.SP2Config(procs))
		if err != nil {
			b.Fatal(err)
		}
		hand = mp.Machine.Time
		p1, p2 := nas.GridShape(procs)
		prog, err := spmd.CompileSource(nas.SPSource(n, steps, p1, p2), nil, spmd.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		res, err := prog.Execute(mpsim.SP2Config(procs))
		if err != nil {
			b.Fatal(err)
		}
		dhpfT = res.Machine.Time
		tp, err := nas.RunTranspose("sp", n, steps, procs, mpsim.SP2Config(procs))
		if err != nil {
			b.Fatal(err)
		}
		pgi = tp.Machine.Time
	}
	b.ReportMetric(hand*1e3, "hand_ms")
	b.ReportMetric(dhpfT*1e3, "dhpf_ms")
	b.ReportMetric(pgi*1e3, "pgi_ms")
}

// BenchmarkTableMeasuredBT is the BT counterpart.
func BenchmarkTableMeasuredBT(b *testing.B) {
	n, steps, procs := 12, 1, 4
	var hand, dhpfT float64
	for i := 0; i < b.N; i++ {
		mp, err := nas.RunMultipart("bt", n, steps, procs, mpsim.SP2Config(procs))
		if err != nil {
			b.Fatal(err)
		}
		hand = mp.Machine.Time
		p1, p2 := nas.GridShape(procs)
		prog, err := spmd.CompileSource(nas.BTSource(n, steps, p1, p2), nil, spmd.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		res, err := prog.Execute(mpsim.SP2Config(procs))
		if err != nil {
			b.Fatal(err)
		}
		dhpfT = res.Machine.Time
	}
	b.ReportMetric(hand*1e3, "hand_ms")
	b.ReportMetric(dhpfT*1e3, "dhpf_ms")
}

// --- Figures 8.1–8.4 ----------------------------------------------------------

func benchFigure(b *testing.B, code, version string) {
	procs, n := 16, 16
	cfg := mpsim.SP2Config(procs)
	cfg.Trace = true
	var s trace.Stats
	for i := 0; i < b.N; i++ {
		var res *mpsim.Result
		switch version {
		case "mpi":
			run, err := nas.RunMultipart(code, n, 1, procs, cfg)
			if err != nil {
				b.Fatal(err)
			}
			res = run.Machine
		case "dhpf":
			p1, p2 := nas.GridShape(procs)
			var src string
			if code == "sp" {
				src = nas.SPSource(n, 1, p1, p2)
			} else {
				src = nas.BTSource(n, 1, p1, p2)
			}
			prog, err := spmd.CompileSource(src, nil, spmd.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			er, err := prog.Execute(cfg)
			if err != nil {
				b.Fatal(err)
			}
			res = er.Machine
		}
		s = trace.Summarize(res)
		if i == 0 {
			b.Log("\n" + trace.Build(res, 100).Render(fmt.Sprintf("%s %s, 16 ranks", code, version)))
		}
	}
	b.ReportMetric(100*s.MeanIdle, "idle_pct")
	b.ReportMetric(100*s.LoadImbalance, "imbalance_pct")
}

// BenchmarkFigure81 traces the hand-MPI SP run (paper Figure 8.1).
func BenchmarkFigure81(b *testing.B) { benchFigure(b, "sp", "mpi") }

// BenchmarkFigure82 traces the dHPF-compiled SP run (Figure 8.2).
func BenchmarkFigure82(b *testing.B) { benchFigure(b, "sp", "dhpf") }

// BenchmarkFigure83 traces the hand-MPI BT run (Figure 8.3).
func BenchmarkFigure83(b *testing.B) { benchFigure(b, "bt", "mpi") }

// BenchmarkFigure84 traces the dHPF-compiled BT run (Figure 8.4).
func BenchmarkFigure84(b *testing.B) { benchFigure(b, "bt", "dhpf") }

// --- Ablations ----------------------------------------------------------------

const ablationLhsy = `
program lhsy
param N = 64
param P = 4
!hpf$ processors procs(P)
!hpf$ template tm(N, N)
!hpf$ template tline(N)
!hpf$ align lhs with tm(d0, d1)
!hpf$ align cv with tline(d0)
!hpf$ distribute tm(*, BLOCK) onto procs
!hpf$ distribute tline(BLOCK) onto procs

subroutine main()
  real lhs(0:N-1, 0:N-1)
  real cv(0:N-1)
  do j = 0, N-1
    do i = 0, N-1
      lhs(i,j) = 0.0
    enddo
  enddo
  !hpf$ independent, new(cv)
  do i = 1, N-2
    do j = 0, N-1
      cv(j) = 0.1*j + 0.01*i
    enddo
    do j = 1, N-2
      lhs(i,j) = cv(j-1) + cv(j+1)
    enddo
  enddo
end
`

// BenchmarkAblationNewProp compares the §4.1 alternatives for
// privatizable arrays, reporting the messages each plan sends: the three
// propagation modes plus dropping the newprop pass entirely (definitions
// keep their base owner-computes CPs).
func BenchmarkAblationNewProp(b *testing.B) {
	for _, m := range []struct {
		name string
		opt  spmd.Options
	}{
		{"translate", spmd.DefaultOptions()},
		{"replicate", func() spmd.Options {
			o := spmd.DefaultOptions()
			o.CP.NewProp = cp.NewPropReplicate
			return o
		}()},
		{"owner", func() spmd.Options {
			o := spmd.DefaultOptions()
			o.CP.NewProp = cp.NewPropOwner
			return o
		}()},
		{"pass-disabled", spmd.DefaultOptions().WithDisabled(PassNewProp)},
	} {
		b.Run(m.name, func(b *testing.B) {
			var msgs int64
			var sumT float64
			for i := 0; i < b.N; i++ {
				prog, err := spmd.CompileSource(ablationLhsy, nil, m.opt)
				if err != nil {
					b.Fatal(err)
				}
				res, err := prog.Execute(mpsim.SP2Config(4))
				if err != nil {
					b.Fatal(err)
				}
				msgs = res.Machine.TotalMessages()
				sumT = 0
				for _, t := range res.Machine.RankTime {
					sumT += t
				}
			}
			b.ReportMetric(float64(msgs), "messages")
			b.ReportMetric(sumT*1e6, "sum_rank_us")
		})
	}
}

// BenchmarkAblationLocalize compares SP's compute_rhs communication with
// the LOCALIZE pass in and out of the pipeline.
func BenchmarkAblationLocalize(b *testing.B) {
	src := nas.SPSource(16, 1, 2, 2)
	for _, on := range []bool{true, false} {
		b.Run(fmt.Sprintf("localize=%v", on), func(b *testing.B) {
			opt := spmd.DefaultOptions()
			if !on {
				opt = opt.WithDisabled(PassLocalize)
			}
			var bytes int64
			for i := 0; i < b.N; i++ {
				prog, err := spmd.CompileSource(src, nil, opt)
				if err != nil {
					b.Fatal(err)
				}
				res, err := prog.Execute(mpsim.SP2Config(4))
				if err != nil {
					b.Fatal(err)
				}
				bytes = res.Machine.TotalBytes()
			}
			b.ReportMetric(float64(bytes), "bytes")
		})
	}
}

// BenchmarkAblationAvailability counts eliminated communication events
// with the §7 availability pass in and out of the pipeline.
func BenchmarkAblationAvailability(b *testing.B) {
	src := nas.SPSource(16, 1, 2, 2)
	for _, on := range []bool{true, false} {
		b.Run(fmt.Sprintf("avail=%v", on), func(b *testing.B) {
			opt := spmd.DefaultOptions()
			if !on {
				opt = opt.WithDisabled(PassAvailability)
			}
			elim := 0
			for i := 0; i < b.N; i++ {
				prog, err := spmd.CompileSource(src, nil, opt)
				if err != nil {
					b.Fatal(err)
				}
				elim = 0
				for _, an := range prog.Comm {
					for _, e := range an.Events {
						if e.Eliminated {
							elim++
						}
					}
				}
			}
			b.ReportMetric(float64(elim), "eliminated_events")
		})
	}
}

// BenchmarkAblationPipelineGrain sweeps the coarse-grain pipelining
// strip width on the dry-run time of one SP 64³ step on 4×4 processors
// — the trade-off the paper says dHPF leaves on the table by using one
// global value.
func BenchmarkAblationPipelineGrain(b *testing.B) {
	for _, g := range []int{1, 4, 8, 16, 31, 62} {
		b.Run(fmt.Sprintf("grain=%d", g), func(b *testing.B) {
			var t float64
			for i := 0; i < b.N; i++ {
				v, _, err := perfmodel.DryRunDHPF("sp", 64, 1, 4, 4, mpsim.SP2Config(16), g)
				if err != nil {
					b.Fatal(err)
				}
				t = v
			}
			b.ReportMetric(t*1e3, "dryrun_ms")
		})
	}
}

// --- Micro-benchmarks of the substrates ---------------------------------------

// BenchmarkISetSubtract exercises the set algebra on stencil-shaped
// overlaps — the inner loop of every communication analysis.
func BenchmarkISetSubtract(b *testing.B) {
	a := iset.FromBox(iset.NewBox([]int{0, 0, 0}, []int{63, 63, 63}))
	c := iset.FromBox(iset.NewBox([]int{1, 1, 1}, []int{62, 62, 62}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Subtract(c)
	}
}

// BenchmarkCompileSP measures the whole compilation pipeline on SP.
func BenchmarkCompileSP(b *testing.B) {
	src := nas.SPSource(32, 2, 2, 2)
	for i := 0; i < b.N; i++ {
		if _, err := spmd.CompileSource(src, nil, spmd.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileBT measures the whole compilation pipeline on BT,
// whose block-tridiagonal solves stress interprocedural CP translation
// harder than SP.
func BenchmarkCompileBT(b *testing.B) {
	src := nas.BTSource(24, 2, 2, 2)
	for i := 0; i < b.N; i++ {
		if _, err := spmd.CompileSource(src, nil, spmd.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecuteSPStep measures the simulated execution of one SP step
// at the corpus shape (16³ on 2×2) under the default engine.  It and the
// LU and recompile benchmarks below are profiling handles (go test
// -bench … -cpuprofile); the pinned benchmark in benchmark/ measures
// their speed from one change to the next.
func BenchmarkExecuteSPStep(b *testing.B) {
	benchExecuteStep(b, nas.SPSource(16, 1, 2, 2))
}

// BenchmarkExecuteBTStep is one BT step at the corpus shape (12³ on
// 2×2).  BT spends most of its flops inside the LOCALIZE wrapper, whose
// guards are unions of boxes — nests SP barely has.
func BenchmarkExecuteBTStep(b *testing.B) {
	benchExecuteStep(b, nas.BTSource(12, 1, 2, 2))
}

func benchExecuteStep(b *testing.B, src string) {
	prog, err := spmd.CompileSource(src, nil, spmd.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prog.Execute(mpsim.SP2Config(4)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultipartStep measures the hand-coded multipartitioning step.
func BenchmarkMultipartStep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := nas.RunMultipart("sp", 24, 1, 16, mpsim.SP2Config(16)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMPSimPingPong measures the virtual machine's message path.
func BenchmarkMPSimPingPong(b *testing.B) {
	cfg := mpsim.SP2Config(2)
	for i := 0; i < b.N; i++ {
		mpsim.Run(cfg, func(r *mpsim.Rank) {
			buf := make([]float64, 128)
			for k := 0; k < 100; k++ {
				if r.ID == 0 {
					r.Send(1, k, buf)
					r.Recv(1, 1000+k)
				} else {
					r.Recv(0, k)
					r.Send(0, 1000+k, buf)
				}
			}
		})
	}
}

// BenchmarkLUWavefront runs the LU-extension's 2-D diagonal wavefront
// (the "line-sweeps in multiple physical dimensions" code class the
// paper's conclusion raises) on 4 simulated ranks under the compiled
// engine.
func BenchmarkLUWavefront(b *testing.B) {
	benchExecuteStep(b, nas.LUSource(16, 1, 2, 2))
}

// --- Incremental compilation -------------------------------------------------

// warmEdit produces the i-th distinct one-constant edit of the modular
// SP source (the CoefAdd term inside the add procedure), so every
// benchmark iteration is a genuine warm edit, never a program-level
// cache hit.
func warmEdit(b *testing.B, base string, i int) string {
	edited := strings.Replace(base, " + 0.1*(rhs(1",
		fmt.Sprintf(" + 0.1%04d*(rhs(1", i%9999+1), 1)
	if edited == base {
		b.Fatal("warm-edit marker not found in SPModSource output")
	}
	return edited
}

// BenchmarkWarmEditRecompile measures the warm-edit recompile latency of
// the modular SP program: one procedure (add) is edited each iteration
// and recompiled through the per-procedure artifact store, thawing every
// unchanged procedure's dependence graph, communication plan and
// verification fragment.  That a clean procedure does no pass work is
// the tier-1 TestIncrementalEditDoesNoCleanPassWork.
func BenchmarkWarmEditRecompile(b *testing.B) {
	base := nas.SPModSource(32, 2, 2, 2)
	inc := NewIncremental(0)
	if _, _, err := inc.Compile(base, nil, DefaultOptions()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, delta, err := inc.Compile(warmEdit(b, base, i), nil, DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if delta.Dirty >= delta.Procs {
			b.Fatalf("warm edit dirtied every procedure: %v", delta)
		}
	}
}
