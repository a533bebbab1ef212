// Command nasbench regenerates the paper's Tables 8.1 and 8.2: execution
// time, relative speedup and relative efficiency of the hand-written
// multipartitioning MPI code, the dhpf-compiled HPF code, and the
// PGI-style transpose code, for NAS SP and BT.
//
// Two modes, reflecting the reproduction protocol (DESIGN.md):
//
//	(default)  the paper's Class A/B sizes across the paper's processor
//	           counts: the dHPF column is a dry run of the compiled code
//	           (one and two steps, extrapolated to 400), with its idle
//	           share; the hand-MPI and PGI columns are analytic;
//	-measure   run all three implementations on the virtual machine at a
//	           reduced size (default N=24, 2 steps) and print measured
//	           times — this validates the shape of the comparison.
//
// With -json the rows are emitted as a machine-readable JSON array (for
// benchmark-trajectory tracking) instead of the rendered tables.
//
// Usage:
//
//	nasbench [-bench sp|bt|all] [-measure] [-json] [-n N] [-steps S] [-procs csv]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"dhpf/internal/mpsim"
	"dhpf/internal/nas"
	"dhpf/internal/perfmodel"
	"dhpf/internal/spmd"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "nasbench:", err)
		os.Exit(1)
	}
}

// jsonRow is one table row in -json form.  Inapplicable measurements
// (NaN in the table) are omitted rather than serialized.
type jsonRow struct {
	Bench string `json:"bench"`
	Class string `json:"class,omitempty"` // projection only
	Mode  string `json:"mode"`            // "projected" or "measured"
	N     int    `json:"n"`
	Steps int    `json:"steps"`
	Procs int    `json:"procs"`

	HandS *float64 `json:"hand_s,omitempty"`
	DhpfS *float64 `json:"dhpf_s,omitempty"`
	PgiS  *float64 `json:"pgi_s,omitempty"`

	SpeedupHand *float64 `json:"speedup_hand,omitempty"`
	SpeedupDhpf *float64 `json:"speedup_dhpf,omitempty"`
	SpeedupPgi  *float64 `json:"speedup_pgi,omitempty"`
	EffDhpf     *float64 `json:"eff_dhpf,omitempty"`
	EffPgi      *float64 `json:"eff_pgi,omitempty"`
	// IdleDhpf is the dry run's largest rank idle time over its makespan
	// (projection only).
	IdleDhpf *float64 `json:"dhpf_idle_share,omitempty"`
}

// fptr maps a table cell to its JSON field: NaN and zero (the table's
// "-") become absent.
func fptr(v float64) *float64 {
	if math.IsNaN(v) || v == 0 {
		return nil
	}
	return &v
}

// run is main with its environment made explicit, so tests can drive
// the CLI end to end.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("nasbench", flag.ContinueOnError)
	fs.SetOutput(w)
	bench := fs.String("bench", "all", "sp, bt or all")
	measure := fs.Bool("measure", false, "measure reduced-size runs on the simulator")
	asJSON := fs.Bool("json", false, "emit rows as a JSON array instead of tables")
	n := fs.Int("n", 24, "grid size for -measure")
	steps := fs.Int("steps", 2, "time steps for -measure")
	procsCSV := fs.String("procs", "", "comma-separated rank counts (default: the paper's)")
	grain := fs.Int("grain", 8, "dhpf pipeline strip width")
	if err := fs.Parse(args); err != nil {
		return err
	}

	benches := []string{"sp", "bt"}
	if *bench != "all" {
		benches = []string{*bench}
	}
	var rows []jsonRow
	for _, b := range benches {
		procs := perfmodel.PaperProcs[b]
		if *procsCSV != "" {
			var err error
			if procs, err = parseCSV(*procsCSV); err != nil {
				return err
			}
		}
		if *measure {
			rows = append(rows, measureTable(w, b, *n, *steps, procs, *grain, *asJSON)...)
			continue
		}
		base := 4
		for _, class := range []nas.Class{nas.ClassA, nas.ClassB} {
			if b == "bt" && class.Name == "B" {
				base = 16 // the paper's convention for BT Class B
			}
			tb, err := perfmodel.BuildTable(b, class, procs, base, mpsim.SP2Config(1), *grain)
			if err != nil {
				return err
			}
			if *asJSON {
				rows = append(rows, projectedRows(tb)...)
			} else {
				fmt.Fprintln(w, tb.Render())
			}
		}
	}
	if *asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rows)
	}
	return nil
}

// projectedRows converts a perfmodel table to JSON rows.
func projectedRows(tb *perfmodel.Table) []jsonRow {
	out := make([]jsonRow, 0, len(tb.Rows))
	for _, r := range tb.Rows {
		out = append(out, jsonRow{
			Bench: tb.Bench, Class: tb.Class.Name, Mode: "projected",
			N: tb.Class.N, Steps: tb.Class.Steps, Procs: r.Procs,
			HandS: fptr(r.Hand), DhpfS: fptr(r.DHPF), PgiS: fptr(r.PGI),
			SpeedupHand: fptr(r.SpHand), SpeedupDhpf: fptr(r.SpDHPF), SpeedupPgi: fptr(r.SpPGI),
			EffDhpf: fptr(r.EffDHPF), EffPgi: fptr(r.EffPGI), IdleDhpf: fptr(r.IdleDHPF),
		})
	}
	return out
}

// measureTable runs the three implementations at a reduced size.  With
// asJSON it returns the rows silently; otherwise it renders the table.
func measureTable(w io.Writer, bench string, n, steps int, procs []int, grain int, asJSON bool) []jsonRow {
	if !asJSON {
		fmt.Fprintf(w, "Measured on the virtual machine: %s, N=%d, %d steps\n", strings.ToUpper(bench), n, steps)
		fmt.Fprintf(w, "%6s | %12s %12s %12s | %8s %8s\n", "procs", "hand(s)", "dHPF(s)", "PGI(s)", "E.dHPF", "E.PGI")
		fmt.Fprintln(w, strings.Repeat("-", 72))
	}
	opt := spmd.DefaultOptions()
	opt.PipelineGrain = grain
	var rows []jsonRow
	for _, p := range procs {
		hand, dhpfT, pgi := "-", "-", "-"
		var handT float64
		if mp, err := nas.RunMultipart(bench, n, steps, p, mpsim.SP2Config(p)); err == nil {
			handT = mp.Machine.Time
			hand = fmt.Sprintf("%.6f", handT)
		}
		var dT, gT float64
		if src := sourceFor(bench, n, steps, p); src != "" {
			if prog, err := spmd.CompileSource(src, nil, opt); err == nil {
				if res, err := prog.Execute(mpsim.SP2Config(p)); err == nil {
					dT = res.Machine.Time
					dhpfT = fmt.Sprintf("%.6f", dT)
				}
			}
		}
		if tp, err := nas.RunTranspose(bench, n, steps, p, mpsim.SP2Config(p)); err == nil {
			gT = tp.Machine.Time
			pgi = fmt.Sprintf("%.6f", gT)
		}
		ed, eg := "-", "-"
		var edV, egV float64
		if handT > 0 && dT > 0 {
			edV = handT / dT
			ed = fmt.Sprintf("%.2f", edV)
		}
		if handT > 0 && gT > 0 {
			egV = handT / gT
			eg = fmt.Sprintf("%.2f", egV)
		}
		if asJSON {
			rows = append(rows, jsonRow{
				Bench: bench, Mode: "measured", N: n, Steps: steps, Procs: p,
				HandS: fptr(handT), DhpfS: fptr(dT), PgiS: fptr(gT),
				EffDhpf: fptr(edV), EffPgi: fptr(egV),
			})
		} else {
			fmt.Fprintf(w, "%6d | %12s %12s %12s | %8s %8s\n", p, hand, dhpfT, pgi, ed, eg)
		}
	}
	if !asJSON {
		fmt.Fprintln(w)
	}
	return rows
}

func sourceFor(bench string, n, steps, p int) string {
	p1, p2 := nas.GridShape(p)
	if bench == "sp" {
		return nas.SPSource(n, steps, p1, p2)
	}
	return nas.BTSource(n, steps, p1, p2)
}

func parseCSV(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
