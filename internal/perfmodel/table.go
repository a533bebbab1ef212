package perfmodel

import (
	"fmt"
	"math"
	"strings"

	"dhpf/internal/mpsim"
	"dhpf/internal/nas"
)

// Row is one processor count of a Table 8.1/8.2-style comparison.
type Row struct {
	Procs           int
	Hand, DHPF, PGI float64 // execution time (s); NaN = not applicable
	SpHand, SpDHPF  float64 // relative speedups (paper's convention)
	SpPGI           float64
	EffDHPF, EffPGI float64 // relative efficiency vs hand-written
	// IdleDHPF is the dry run's largest rank idle time over its makespan.
	IdleDHPF float64
}

// Table is the full comparison for one benchmark and class.
type Table struct {
	Bench     string
	Class     nas.Class
	BaseProcs int // the hand-written run assumed to have perfect speedup
	Rows      []Row
}

// PaperProcs are the processor counts of the paper's tables.
var PaperProcs = map[string][]int{
	"sp": {2, 4, 8, 9, 16, 25, 32},
	"bt": {4, 8, 9, 16, 25, 27, 32},
}

// BuildTable fills the three implementations' columns across processor
// counts, each the virtual machine's clock at the class size
// extrapolated by the one rule (extrapolate): hand-MPI is
// nas.ClockMultipart (square counts only), dHPF the dry run on
// nas.GridShape(p) (DryRunDHPF), PGI nas.ClockTranspose (counts up to
// N).  It follows the paper's metric conventions: speedups are relative
// to the baseProcs hand-written run (assumed perfect), and relative
// efficiency compares each HPF code's speedup with the hand-written
// speedup at the same count.
func BuildTable(bench string, class nas.Class, procs []int, baseProcs int, cfg mpsim.Config, grain int) (*Table, error) {
	t := &Table{Bench: bench, Class: class, BaseProcs: baseProcs}
	square := func(p int) bool {
		q := int(math.Round(math.Sqrt(float64(p))))
		return q*q == p
	}
	baseHand, err := clockHand(bench, class.N, class.Steps, baseProcs, cfg)
	if err != nil {
		return nil, err
	}
	perfect := float64(baseProcs) * baseHand

	for _, p := range procs {
		r := Row{Procs: p, Hand: math.NaN(), DHPF: math.NaN(), PGI: math.NaN()}
		if square(p) {
			if r.Hand, err = clockHand(bench, class.N, class.Steps, p, cfg); err != nil {
				return nil, err
			}
			r.SpHand = perfect / r.Hand // S(p) = baseProcs·T(base)/T(p)
		}
		p1, p2 := nas.GridShape(p)
		d, idle, err := DryRunDHPF(bench, class.N, class.Steps, p1, p2, cfg, grain)
		if err != nil {
			return nil, err
		}
		r.DHPF, r.SpDHPF, r.IdleDHPF = d, perfect/d, idle
		if p <= class.N {
			if r.PGI, err = clockPGI(bench, class.N, class.Steps, p, cfg); err != nil {
				return nil, err
			}
			r.SpPGI = perfect / r.PGI
		}
		if !math.IsNaN(r.Hand) {
			r.EffDHPF = r.SpDHPF / r.SpHand
			if !math.IsNaN(r.PGI) {
				r.EffPGI = r.SpPGI / r.SpHand
			}
		}
		t.Rows = append(t.Rows, r)
	}
	return t, nil
}

// Render prints the table in the paper's layout.
func (t *Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table: %s Class %s (N=%d, %d steps) on the simulated SP2 cost model\n",
		strings.ToUpper(t.Bench), t.Class.Name, t.Class.N, t.Class.Steps)
	if s := t.Class.Steps; s > 2 {
		fmt.Fprintf(&sb, "hand, dHPF, PGI: the simulator's clock at one and two steps, T(%d) = T(2) + %d·(T(2) − T(1))\n", s, s-2)
	} else {
		fmt.Fprintf(&sb, "hand, dHPF, PGI: the simulator's clock at %d steps\n", s)
	}
	fmt.Fprintf(&sb, "speedups relative to the %d-processor hand-written code (assumed perfect)\n", t.BaseProcs)
	fmt.Fprintf(&sb, "%6s | %10s %10s %10s | %7s %7s %7s | %7s %7s | %6s\n",
		"procs", "hand(s)", "dHPF(s)", "PGI(s)", "S.hand", "S.dHPF", "S.PGI", "E.dHPF", "E.PGI", "I.dHPF")
	fmt.Fprintf(&sb, "%s\n", strings.Repeat("-", 105))
	f := func(v float64) string {
		switch {
		case math.IsNaN(v) || v == 0:
			return "-"
		case v < 1: // a reduced size
			return fmt.Sprintf("%.4f", v)
		}
		return fmt.Sprintf("%.1f", v)
	}
	e := func(v float64) string {
		if math.IsNaN(v) || v == 0 {
			return "-"
		}
		return fmt.Sprintf("%.2f", v)
	}
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%6d | %10s %10s %10s | %7s %7s %7s | %7s %7s | %6s\n",
			r.Procs, f(r.Hand), f(r.DHPF), f(r.PGI),
			e(r.SpHand), e(r.SpDHPF), e(r.SpPGI), e(r.EffDHPF), e(r.EffPGI), e(r.IdleDHPF))
	}
	return sb.String()
}
