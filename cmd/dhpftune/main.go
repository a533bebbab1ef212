// Command dhpftune auto-tunes a mini-HPF program: it searches
// processor-grid shapes, distribution schemes (compiled 2-D BLOCK vs
// the PGI-style 1-D transpose), coarse-grain pipelining granularities,
// pass ablations, and swept parameters for the lowest-cost
// configuration, then prints the ranked leaderboard, the decision
// trail, and (on request) the winning options as /v1/compile-ready
// JSON.
//
// Usage:
//
//	dhpftune -bench sp -n 12 -steps 1 -procs 16 -target-n 64
//	dhpftune -src prog.hpf -procs 4
//
//	-bench NAME      generate the SP or BT mini-HPF source (sp|bt)
//	-src FILE        tune a mini-HPF file instead (generic mode)
//	-procs N         virtual machine size (required)
//	-n, -steps       source problem size (bench mode; default 12, 1)
//	-target-n N      rank for this problem size (default: source size)
//	-target-steps N  rank for this step count (default: source steps)
//	-grids LIST      grid shapes, e.g. "2x8,4x4" (default: all factorizations)
//	-grains LIST     pipeline strip widths, e.g. "4,8,16"
//	-backends LIST   execution substrates to search, e.g. "mp,shm,hybrid"
//	                 (default mp only; non-mp candidates carry the backend
//	                 in their leaderboard key, e.g. "block shm 2x2 g8")
//	-ablate LIST     ablation sets, ';'-separated Disable lists, e.g.
//	                 "availability;localize,newprop" (full pipeline always included)
//	-sweep P=V,...   sweep an extra source parameter (repeatable)
//	-param NAME=V    fixed parameter override (repeatable)
//	-topk K          survivors fully simulated (default 3)
//	-max-screen N    cap screened candidates (seeded subsample; 0 = all)
//	-workers N       parallel evaluation wave size (default 4)
//	-seed N          subsample seed
//	-prune-factor F  abandon candidates above incumbent×F (default 4)
//	-no-transpose    drop the 1-D transpose comparison candidate
//	-skip-verify     skip the serial-reference numerics check
//	-trail           print the decision trail (why candidates were pruned)
//	-json            print the full TuneResult as JSON
//	-emit-options    print the winner's {params, options} as JSON
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"dhpf"
	"dhpf/internal/nas"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

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

type sweepFlags map[string][]int

func (s sweepFlags) String() string { return fmt.Sprint(map[string][]int(s)) }
func (s sweepFlags) Set(v string) error {
	name, vals, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want NAME=V1,V2,..., got %q", v)
	}
	for _, f := range strings.Split(vals, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return err
		}
		s[name] = append(s[name], n)
	}
	return nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dhpftune", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench       = fs.String("bench", "", "generate the SP or BT source (sp|bt)")
		srcFile     = fs.String("src", "", "tune a mini-HPF file (generic mode)")
		procs       = fs.Int("procs", 0, "virtual machine size (required)")
		n           = fs.Int("n", 12, "source grid points per dimension (bench mode)")
		steps       = fs.Int("steps", 1, "source time steps (bench mode)")
		targetN     = fs.Int("target-n", 0, "problem size the ranking targets (0 = source)")
		targetSteps = fs.Int("target-steps", 0, "step count the ranking targets (0 = source)")
		grids       = fs.String("grids", "", `grid shapes, e.g. "2x8,4x4" (default: all factorizations)`)
		grains      = fs.String("grains", "", `pipeline strip widths, e.g. "4,8,16"`)
		backends    = fs.String("backends", "", `execution substrates to search, e.g. "mp,shm,hybrid"`)
		ablate      = fs.String("ablate", "", `ablation sets: ';'-separated Disable lists`)
		topK        = fs.Int("topk", 0, "survivors fully simulated (default 3)")
		maxScreen   = fs.Int("max-screen", 0, "cap screened candidates (0 = all)")
		workers     = fs.Int("workers", 0, "parallel evaluation wave size (default 4)")
		seed        = fs.Int64("seed", 0, "subsample seed")
		pruneFactor = fs.Float64("prune-factor", 0, "abandon above incumbent×F (default 4)")
		noTranspose = fs.Bool("no-transpose", false, "drop the transpose comparison candidate")
		skipVerify  = fs.Bool("skip-verify", false, "skip the serial-reference numerics check")
		trail       = fs.Bool("trail", false, "print the decision trail")
		asJSON      = fs.Bool("json", false, "print the full TuneResult as JSON")
		emitOptions = fs.Bool("emit-options", false, "print the winner's {params, options} as JSON")
	)
	params := paramFlags{}
	fs.Var(params, "param", "parameter override NAME=VALUE (repeatable)")
	sweep := sweepFlags{}
	fs.Var(sweep, "sweep", "sweep a source parameter NAME=V1,V2,... (repeatable)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *procs < 1 {
		fmt.Fprintln(stderr, "dhpftune: -procs is required")
		return 2
	}
	if (*bench == "") == (*srcFile == "") {
		fmt.Fprintln(stderr, "dhpftune: exactly one of -bench or -src is required")
		return 2
	}

	opt := dhpf.TuneOptions{
		Params:      params,
		Procs:       *procs,
		TargetN:     *targetN,
		TargetSteps: *targetSteps,
		TopK:        *topK,
		MaxScreen:   *maxScreen,
		Workers:     *workers,
		Seed:        *seed,
		PruneFactor: *pruneFactor,
		NoTranspose: *noTranspose,
		SkipVerify:  *skipVerify,
	}
	if len(sweep) > 0 {
		opt.Sweep = sweep
	}

	var source string
	switch *bench {
	case "sp":
		source = nas.SPSource(*n, *steps, 1, *procs)
	case "bt":
		source = nas.BTSource(*n, *steps, 1, *procs)
	case "":
		data, err := os.ReadFile(*srcFile)
		if err != nil {
			fmt.Fprintln(stderr, "dhpftune:", err)
			return 1
		}
		source = string(data)
	default:
		fmt.Fprintf(stderr, "dhpftune: unknown bench %q (want sp or bt)\n", *bench)
		return 2
	}
	if *bench != "" {
		opt.Bench, opt.N, opt.Steps = *bench, *n, *steps
	}

	var err error
	if opt.Grids, err = parseGrids(*grids); err != nil {
		fmt.Fprintln(stderr, "dhpftune:", err)
		return 2
	}
	if opt.Grains, err = parseInts(*grains); err != nil {
		fmt.Fprintln(stderr, "dhpftune:", err)
		return 2
	}
	opt.Ablations = parseAblations(*ablate)
	if *backends != "" {
		for _, b := range strings.Split(*backends, ",") {
			opt.Backends = append(opt.Backends, strings.TrimSpace(b))
		}
	}

	res, err := dhpf.Tune(context.Background(), source, opt)
	if err != nil {
		fmt.Fprintln(stderr, "dhpftune:", err)
		if res != nil && *trail {
			for _, line := range res.Trail {
				fmt.Fprintln(stderr, "  ", line)
			}
		}
		return 1
	}

	switch {
	case *asJSON:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		enc.Encode(res)
	case *emitOptions:
		// Key and scheme make the fragment self-describing: a transpose
		// winner is a hand-coded comparison point with no compiler
		// options to replay (params/options are null then).
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			Key     string               `json:"key"`
			Scheme  string               `json:"scheme"`
			Params  map[string]int       `json:"params,omitempty"`
			Options *dhpf.RequestOptions `json:"options,omitempty"`
		}{res.Winner.Key, res.Winner.Scheme, res.Winner.Params, res.Winner.Options})
	default:
		printLeaderboard(stdout, res, *trail)
	}
	return 0
}

func printLeaderboard(w io.Writer, res *dhpf.TuneResult, withTrail bool) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "RANK\tSTATUS\tCANDIDATE\tSCREENED\tSIMULATED\tNOTE")
	for _, e := range res.Entries {
		screen, sim := "-", "-"
		if e.ScreenSeconds > 0 {
			screen = fmt.Sprintf("%.4gs", e.ScreenSeconds)
		}
		if e.SimSeconds > 0 {
			sim = fmt.Sprintf("%.4gs", e.SimSeconds)
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%s\t%s\n",
			e.Rank, e.Status, e.Key, screen, sim, e.Note)
	}
	tw.Flush()
	c := res.Counters
	fmt.Fprintf(w, "search: %d candidates, %d screened, %d infeasible, %d simulated (%d pruned, %d memo hits)\n",
		c.Candidates, c.Screened, c.Infeasible, c.FullEvals, c.Pruned, c.MemoHits)
	if withTrail {
		fmt.Fprintln(w, "trail:")
		for _, line := range res.Trail {
			fmt.Fprintln(w, "  ", line)
		}
	}
	if res.Winner != nil {
		fmt.Fprintf(w, "winner: %s\n", res.Winner.Key)
	}
}

func parseGrids(s string) ([][2]int, error) {
	if s == "" {
		return nil, nil
	}
	var out [][2]int
	for _, f := range strings.Split(s, ",") {
		a, b, ok := strings.Cut(strings.TrimSpace(f), "x")
		if !ok {
			return nil, fmt.Errorf("bad grid %q (want P1xP2)", f)
		}
		p1, err1 := strconv.Atoi(a)
		p2, err2 := strconv.Atoi(b)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bad grid %q (want P1xP2)", f)
		}
		out = append(out, [2]int{p1, p2})
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

// parseAblations turns "availability;localize,newprop" into Disable
// sets; the unablated full pipeline is always the first set.
func parseAblations(s string) [][]string {
	if s == "" {
		return nil
	}
	out := [][]string{nil}
	for _, group := range strings.Split(s, ";") {
		var set []string
		for _, name := range strings.Split(group, ",") {
			if name = strings.TrimSpace(name); name != "" {
				set = append(set, name)
			}
		}
		if len(set) > 0 {
			out = append(out, set)
		}
	}
	return out
}
