// Command nasbench regenerates the paper's Tables 8.1 and 8.2: execution
// time, relative speedup and relative efficiency of the hand-written
// multipartitioning MPI code, the dhpf-compiled HPF code, and the
// PGI-style transpose code, for NAS SP and BT.
//
// Every cell is the virtual machine's clock: the dHPF column a dry run
// of the compiled code, the hand-MPI and PGI columns the hand-written
// codes run without their arrays, each at one and two time steps and
// extrapolated to the class's steps by one rule (perfmodel.BuildTable).
// By default it prints the paper's Classes A and B; -n N -steps S
// prints one table at that size instead.
//
// With -json the rows are emitted as a machine-readable JSON array (for
// benchmark-trajectory tracking) instead of the rendered tables.
//
// Usage:
//
//	nasbench [-bench sp|bt|all] [-json] [-n N -steps S] [-procs csv] [-grain G]
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
	Class string `json:"class"`
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
	// IdleDhpf is the dry run's largest rank idle time over its makespan.
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
	asJSON := fs.Bool("json", false, "emit rows as a JSON array instead of tables")
	n := fs.Int("n", 0, "grid size of one table in place of Classes A and B")
	steps := fs.Int("steps", 2, "time steps of the -n table")
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
		classes := []nas.Class{nas.ClassA, nas.ClassB}
		if *n > 0 {
			classes = []nas.Class{{Name: fmt.Sprintf("N%d", *n), N: *n, Steps: *steps}}
		}
		for _, class := range classes {
			base := 4
			if b == "bt" && class.Name == "B" {
				base = 16 // the paper's convention for BT Class B
			}
			tb, err := perfmodel.BuildTable(b, class, procs, base, mpsim.SP2Config(1), *grain)
			if err != nil {
				return err
			}
			if *asJSON {
				rows = append(rows, tableRows(tb)...)
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

// tableRows converts a perfmodel table to JSON rows.
func tableRows(tb *perfmodel.Table) []jsonRow {
	out := make([]jsonRow, 0, len(tb.Rows))
	for _, r := range tb.Rows {
		out = append(out, jsonRow{
			Bench: tb.Bench, Class: tb.Class.Name,
			N: tb.Class.N, Steps: tb.Class.Steps, Procs: r.Procs,
			HandS: fptr(r.Hand), DhpfS: fptr(r.DHPF), PgiS: fptr(r.PGI),
			SpeedupHand: fptr(r.SpHand), SpeedupDhpf: fptr(r.SpDHPF), SpeedupPgi: fptr(r.SpPGI),
			EffDhpf: fptr(r.EffDHPF), EffPgi: fptr(r.EffPGI), IdleDhpf: fptr(r.IdleDHPF),
		})
	}
	return out
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
