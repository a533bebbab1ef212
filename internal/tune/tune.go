// Package tune is the budgeted parallel auto-tuner of the reproduction:
// given a mini-HPF source it searches the cross product of
// execution backends (message-passing, shared-memory, hybrid),
// processor-grid shapes, distribution schemes (the compiled 2-D BLOCK
// code vs the PGI-style 1-D transpose code), coarse-grain pipelining
// granularities, pass ablations, and swept source parameters for the
// configuration with the lowest predicted cost at a target problem
// size.
//
// The search has two tiers.  The screen scores every candidate at the
// *target* size — the paper's Class A/B scale, where executing the
// arrays is out of reach — by the virtual time of its dry run
// (spmd.Program.DryRun): the compiled program's own clock, walked on
// the virtual machine without values (the transpose comparison point,
// hand-written and not compiled, runs without its arrays instead).
// The top-K survivors are then compiled and executed at the *source*
// size, which verifies each survivor's numerics against the serial
// reference and measures its virtual-time cost.  Candidates whose
// simulated virtual time exceeds the incumbent best by a margin are
// abandoned early (the simulator's TimeLimit), and screens and completed
// evaluations are memoized across Tune calls through content-addressed
// fingerprints.
//
// Everything is deterministic for a fixed spec: enumeration order is
// fixed, subsampling uses the caller's seed, the full tier runs in
// waves whose pruning limits depend only on completed virtual times
// (themselves deterministic), and ties break on the canonical candidate
// key — so repeated runs produce identical leaderboards, memo hits or
// not.
package tune

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"

	"dhpf/internal/cache"
	"dhpf/internal/mpsim"
	"dhpf/internal/nas"
	"dhpf/internal/parser"
	"dhpf/internal/passes"
	"dhpf/internal/spmd"
)

// Spec describes one tuning request: the program, the configuration
// space, and the search budget.
type Spec struct {
	// Source is the mini-HPF program text.  The grid-shape parameters
	// named by GridParams must appear in its PROCESSORS directive.
	Source string
	// Params are base parameter overrides applied to every candidate.
	Params map[string]int

	// Bench names the benchmark family of Source ("sp" or "bt").  It
	// lets the screen run at a target size (through the source's N and
	// STEPS parameters) and unlocks the transpose comparison scheme;
	// empty means a generic source, screened at its source size.
	Bench string
	// N, Steps are the source problem size (bench mode; used by the
	// feasibility filter and the transpose runner).
	N, Steps int
	// TargetN, TargetSteps are the problem size the screen ranks for;
	// zero means the source size.  Setting these to a paper-scale size
	// (e.g. Class A's 64³) makes the tuner answer "which configuration
	// wins at scale" while still executing at a tractable size.
	TargetN, TargetSteps int

	// Procs is the virtual machine size.
	Procs int
	// GridParams names the two source parameters that set the processor
	// grid shape; default {"P1", "P2"}.  Grid parameters must only
	// affect directives, never the computed values (the serial
	// reference is shared across shapes).
	GridParams [2]string

	// Grids, Grains, Ablations, Sweep span the candidate space; each
	// nil field gets a default (all factorizations of Procs; strip
	// widths 4/8/16; no ablations; no sweeps).  Ablations lists
	// Options.Disable sets to try; Sweep maps extra source parameters
	// to candidate values (e.g. a BLOCK(B) block size).
	Grids     [][2]int
	Grains    []int
	Ablations [][]string
	Sweep     map[string][]int
	// Backends lists the execution substrates the block scheme tries
	// ("mp", "shm", "hybrid"); nil means message-passing only, so the
	// backend dimension is opt-in and default leaderboards are
	// unchanged.  The search is joint: every backend is crossed with
	// every grid × grain × ablation point, because the best grid shape
	// differs per substrate (shm has no message cost to amortize, hybrid
	// wants a tall dim-0 to keep groups wide).
	Backends []string
	// NoTranspose drops the transpose comparison candidate.
	NoTranspose bool

	// TopK bounds the full tier: how many screen survivors are compiled
	// and simulated (default 3).
	TopK int
	// MaxScreen caps the screened candidate count; when the space is
	// larger, a Seed-deterministic subsample is screened (0 = screen
	// everything).
	MaxScreen int
	Seed      int64
	// Workers sizes the full tier's parallel evaluation waves (default
	// 4).  It is part of the budget: changing it changes the wave
	// structure and therefore which candidates may be pruned.
	Workers int
	// PruneFactor sets the early-pruning margin: a candidate is
	// abandoned once its simulated virtual time exceeds the incumbent
	// best × PruneFactor (default 4; it is a safety margin, not a
	// ranking tolerance).
	PruneFactor float64

	// Engine names the execution engine full-tier evaluations run
	// under ("" = compiled; "interp"; "codegen" uses native kernels
	// where the process registry has them, cutting the wall-clock cost
	// of each simulated candidate).  Virtual-time results are
	// byte-identical across engines, so the leaderboard is unchanged —
	// only the search gets faster.
	Engine string

	// Machine is the simulated cost model; zero means the paper's SP2.
	Machine mpsim.Config

	// VerifyArrays names the arrays compared against the serial
	// reference; empty means every main-procedure array (bench-mode
	// transpose candidates always verify "u").  SkipVerify disables the
	// comparison, which is spmd.Agree's under VerifyTol.
	VerifyArrays []string
	SkipVerify   bool
}

// VerifyTol is the relative error a verified candidate's arrays may
// carry against the serial reference.
const VerifyTol = 1e-10

// testCorrupt, when set by tests, mutates a compiled candidate before
// the safety gate — the hook proving the gate rejects an unsafe program
// (nil in production).
var testCorrupt func(*spmd.Program)

// withDefaults resolves every unset knob.
func (s Spec) withDefaults() (Spec, error) {
	if s.Source == "" {
		return s, errors.New("tune: empty source")
	}
	if s.Procs < 1 {
		return s, errors.New("tune: procs must be ≥ 1")
	}
	if s.Bench != "" {
		if s.Bench != "sp" && s.Bench != "bt" {
			return s, fmt.Errorf("tune: unknown bench %q", s.Bench)
		}
		if s.N < 1 || s.Steps < 1 {
			return s, errors.New("tune: bench mode needs N and Steps")
		}
	}
	if s.GridParams[0] == "" {
		s.GridParams = [2]string{"P1", "P2"}
	}
	if s.Grids == nil {
		s.Grids = allGrids(s.Procs)
	}
	if s.Grains == nil {
		s.Grains = []int{4, 8, 16}
	}
	if s.Ablations == nil {
		s.Ablations = [][]string{nil}
	}
	if s.Backends == nil {
		s.Backends = []string{passes.BackendMP}
	}
	for i, b := range s.Backends {
		canon, err := passes.ParseBackend(b)
		if err != nil {
			return s, fmt.Errorf("tune: %w", err)
		}
		s.Backends[i] = canon
	}
	if s.TopK < 1 {
		s.TopK = 3
	}
	if s.Workers < 1 {
		s.Workers = 4
	}
	if s.PruneFactor <= 0 {
		s.PruneFactor = 4
	}
	if s.Machine.FlopTime == 0 && s.Machine.Latency == 0 {
		s.Machine = mpsim.SP2Config(s.Procs)
	}
	if s.TargetN == 0 {
		s.TargetN = s.N
	}
	if s.TargetSteps == 0 {
		s.TargetSteps = s.Steps
	}
	return s, nil
}

// Entry statuses, in leaderboard order: fully evaluated candidates
// first, then screened-only ones, then the demoted classes.
const (
	StatusOK         = "ok"         // simulated (and verified, unless skipped)
	StatusScreened   = "screened"   // ranked by the screen only
	StatusPruned     = "pruned"     // abandoned: slower than incumbent × margin
	StatusMismatch   = "mismatch"   // simulated but numerics diverged
	StatusError      = "error"      // compile, dry-run or execution failure
	StatusInfeasible = "infeasible" // rejected before evaluation
)

func statusRank(s string) int {
	switch s {
	case StatusOK:
		return 0
	case StatusScreened:
		return 1
	case StatusPruned:
		return 2
	case StatusMismatch:
		return 3
	case StatusError:
		return 4
	default:
		return 5
	}
}

// Entry is one leaderboard row.
type Entry struct {
	Candidate
	Rank   int    `json:"rank"`
	Status string `json:"status"`
	// Screen is the screen's time at the target size (seconds per
	// run): a block candidate's dry-run virtual time, the transpose
	// point's virtual time run without its arrays.
	Screen float64 `json:"screen_seconds"`
	// Sim is the measured virtual time at the source size, with its
	// message totals (full tier only).
	Sim       float64 `json:"sim_seconds,omitempty"`
	Msgs      int64   `json:"sim_messages,omitempty"`
	Bytes     int64   `json:"sim_bytes,omitempty"`
	MaxRelErr float64 `json:"max_rel_err,omitempty"`
	Verified  bool    `json:"verified,omitempty"`
	// ComparedArrays counts the arrays checked against the serial
	// reference.
	ComparedArrays int `json:"compared_arrays,omitempty"`
	// Cached reports the evaluation was served by the memo cache.
	Cached bool   `json:"cached,omitempty"`
	Note   string `json:"note,omitempty"`
	// Params and Options reproduce the candidate outside the tuner:
	// feed them to Compile to get the winning program.
	Params  map[string]int  `json:"params,omitempty"`
	Options *passes.Options `json:"options,omitempty"`
}

// Counters summarize the search effort.
type Counters struct {
	Candidates int `json:"candidates"`
	Screened   int `json:"screened"`
	Infeasible int `json:"infeasible"`
	FullEvals  int `json:"full_evals"`
	Pruned     int `json:"pruned"`
	MemoHits   int `json:"memo_hits"`
	MemoMisses int `json:"memo_misses"`
	// ScreenWall and FullWall are the real time spent in each tier.
	ScreenWall time.Duration `json:"screen_wall_ns"`
	FullWall   time.Duration `json:"full_wall_ns"`
}

// Result is the tuner's report: the ranked leaderboard, the winner, the
// effort counters, and a human-readable decision trail.
type Result struct {
	Winner   *Entry   `json:"winner,omitempty"`
	Entries  []Entry  `json:"entries"`
	Counters Counters `json:"counters"`
	Trail    []string `json:"trail"`
}

// fullEval is one memoized full-tier measurement.
type fullEval struct {
	Seconds   float64
	Msgs      int64
	Bytes     int64
	MaxRelErr float64
	Verified  bool
	Compared  int
	Mismatch  string // why a candidate is not verified
}

// Tuner runs tuning requests over shared memo caches: repeated Tune
// calls (or overlapping specs) reuse screens, full evaluations and
// serial reference runs keyed by content fingerprints.
type Tuner struct {
	evals   *cache.Cache[fullEval]
	screens *cache.Cache[float64]
	serials *cache.Cache[map[string][]float64]
}

// New returns a Tuner with default cache budgets (evaluations are
// bounded by count, serial references by array bytes).
func New() *Tuner {
	return &Tuner{
		evals:   cache.New[fullEval](1 << 16),
		screens: cache.New[float64](1 << 16),
		serials: cache.New[map[string][]float64](128 << 20),
	}
}

// MemoStats exposes the evaluation cache counters.
func (t *Tuner) MemoStats() cache.Stats { return t.evals.Stats() }

// Run executes the two-tier search.  The returned Result is non-nil
// whenever the spec validates, even if no candidate completed (then
// Winner is nil and an error explains why).
func (t *Tuner) Run(ctx context.Context, spec Spec) (*Result, error) {
	s, err := spec.withDefaults()
	if err != nil {
		return nil, err
	}
	res := &Result{}
	trail := func(format string, args ...any) {
		res.Trail = append(res.Trail, fmt.Sprintf(format, args...))
	}

	cands := enumerate(&s)
	res.Counters.Candidates = len(cands)
	if s.MaxScreen > 0 && len(cands) > s.MaxScreen {
		rnd := rand.New(rand.NewSource(s.Seed))
		perm := rnd.Perm(len(cands))[:s.MaxScreen]
		sort.Ints(perm)
		sampled := make([]Candidate, 0, s.MaxScreen)
		for _, i := range perm {
			sampled = append(sampled, cands[i])
		}
		trail("subsampled %d of %d candidates (seed %d)", s.MaxScreen, len(cands), s.Seed)
		cands = sampled
	}

	// Tier 1: screen every feasible candidate.
	screenStart := time.Now()
	entries := make([]Entry, 0, len(cands))
	for _, c := range cands {
		e := Entry{Candidate: c, Params: c.params(&s)}
		if c.Scheme == SchemeBlock {
			o := c.options()
			e.Options = &o
		}
		if ok, why := s.feasible(c); !ok {
			e.Status, e.Note = StatusInfeasible, why
			res.Counters.Infeasible++
			entries = append(entries, e)
			continue
		}
		secs, err := t.screen(ctx, &s, c)
		if ctx.Err() != nil {
			return res, ctx.Err()
		}
		if err != nil {
			// A deadlock included: the dry run is the run the full tier
			// would make, so a broken candidate is filed here, with its
			// cycle, and costs no execution.
			e.Status, e.Note = StatusError, err.Error()
			trail("%s %s: %s", e.Status, e.Key(), e.Note)
			entries = append(entries, e)
			continue
		}
		e.Status, e.Screen = StatusScreened, secs
		res.Counters.Screened++
		entries = append(entries, e)
	}
	res.Counters.ScreenWall = time.Since(screenStart)
	size := "source size"
	if s.Bench != "" {
		size = fmt.Sprintf("target %d³×%d steps", s.TargetN, s.TargetSteps)
	}
	trail("screened %d candidates at %s in %v (%d infeasible)",
		res.Counters.Screened, size, res.Counters.ScreenWall.Round(time.Microsecond), res.Counters.Infeasible)

	// Select survivors: feasible candidates by (screen score, key).
	survivors := make([]*Entry, 0, len(entries))
	for i := range entries {
		if entries[i].Status == StatusScreened {
			survivors = append(survivors, &entries[i])
		}
	}
	sort.Slice(survivors, func(i, j int) bool {
		if survivors[i].Screen != survivors[j].Screen {
			return survivors[i].Screen < survivors[j].Screen
		}
		return survivors[i].Key() < survivors[j].Key()
	})
	if len(survivors) > s.TopK {
		survivors = survivors[:s.TopK]
	}
	if len(survivors) > 0 {
		keys := make([]string, len(survivors))
		for i, e := range survivors {
			keys[i] = e.Key()
		}
		trail("full tier: top %d by screen: %v", len(survivors), keys)
	}

	// Tier 2: compile + simulate survivors in deterministic waves.
	fullStart := time.Now()
	incumbent := math.Inf(1)
	for lo := 0; lo < len(survivors); lo += s.Workers {
		wave := survivors[lo:min(lo+s.Workers, len(survivors))]
		limit := 0.0
		if !math.IsInf(incumbent, 1) {
			limit = incumbent * s.PruneFactor
		}
		var wg sync.WaitGroup
		for _, e := range wave {
			wg.Add(1)
			go func(e *Entry) {
				defer wg.Done()
				t.finishEval(ctx, &s, e, limit)
			}(e)
		}
		wg.Wait()
		if ctx.Err() != nil {
			return res, ctx.Err()
		}
		for _, e := range wave {
			res.Counters.FullEvals++
			if e.Cached {
				res.Counters.MemoHits++
			} else {
				res.Counters.MemoMisses++
			}
			switch e.Status {
			case StatusOK:
				if e.Sim < incumbent {
					incumbent = e.Sim
				}
				trail("evaluated %s: %.6fs virtual (%d msgs, %s)%s",
					e.Key(), e.Sim, e.Msgs, verifyNote(&s, e), cachedNote(e))
			case StatusPruned:
				res.Counters.Pruned++
				trail("pruned %s: %s", e.Key(), e.Note)
			default:
				trail("%s %s: %s", e.Status, e.Key(), e.Note)
			}
		}
	}
	res.Counters.FullWall = time.Since(fullStart)

	// Rank: status class, then screened target cost, then measured
	// time, then the canonical key.
	sort.Slice(entries, func(i, j int) bool {
		a, b := &entries[i], &entries[j]
		if ra, rb := statusRank(a.Status), statusRank(b.Status); ra != rb {
			return ra < rb
		}
		if a.Screen != b.Screen {
			return a.Screen < b.Screen
		}
		if a.Sim != b.Sim {
			return a.Sim < b.Sim
		}
		return a.Key() < b.Key()
	})
	for i := range entries {
		entries[i].Rank = i + 1
	}
	res.Entries = entries
	if len(entries) > 0 && entries[0].Status == StatusOK {
		res.Winner = &res.Entries[0]
		trail("winner: %s (screened %.4fs at target, measured %.6fs virtual at source)",
			res.Winner.Key(), res.Winner.Screen, res.Winner.Sim)
	} else {
		trail("no candidate completed evaluation")
		return res, errors.New("tune: no feasible configuration completed evaluation")
	}
	return res, nil
}

func verifyNote(s *Spec, e *Entry) string {
	if s.SkipVerify {
		return "verify skipped"
	}
	return fmt.Sprintf("verified %d arrays, max rel err %.2g", e.ComparedArrays, e.MaxRelErr)
}

func cachedNote(e *Entry) string {
	if e.Cached {
		return " [memo]"
	}
	return ""
}

// finishEval runs (or recalls) the full evaluation of one survivor and
// writes the outcome into its entry.
func (t *Tuner) finishEval(ctx context.Context, s *Spec, e *Entry, limit float64) {
	ev, cached, err := t.evalFull(ctx, s, e.Candidate, limit)
	e.Cached = cached
	switch {
	case err == nil && limit > 0 && ev.Seconds > limit:
		// A memoized result from a run with a looser (or no) limit can
		// exceed this wave's limit; classify it exactly as a fresh run
		// would have been, so leaderboards are cache-independent.
		e.Status = StatusPruned
		e.Note = fmt.Sprintf("virtual time %.6fs exceeds limit %.6fs (incumbent × %.3g)", ev.Seconds, limit, s.PruneFactor)
		e.Sim, e.Msgs, e.Bytes = ev.Seconds, ev.Msgs, ev.Bytes
	case err == nil:
		e.Sim, e.Msgs, e.Bytes = ev.Seconds, ev.Msgs, ev.Bytes
		e.MaxRelErr, e.Verified, e.ComparedArrays = ev.MaxRelErr, ev.Verified, ev.Compared
		if !s.SkipVerify && !ev.Verified {
			e.Status = StatusMismatch
			e.Note = ev.Mismatch
			return
		}
		e.Status = StatusOK
	case errors.Is(err, mpsim.ErrAborted) && !errors.Is(err, mpsim.ErrDeadlock):
		e.Status = StatusPruned
		e.Note = fmt.Sprintf("abandoned at virtual limit %.6fs (incumbent × %.3g): %v", limit, s.PruneFactor, err)
	default:
		// Includes a deadlock: not a slow candidate but a broken one, and
		// the note is the cycle.
		e.Status = StatusError
		e.Note = err.Error()
	}
}

// machineKey fingerprints the cost-model fields of a machine config
// (limits excluded: they don't change what a completed run measures).
func machineKey(cfg mpsim.Config, procs int) string {
	return fmt.Sprintf("%g/%g/%g/%g/%g/p%d",
		cfg.FlopTime, cfg.Latency, cfg.SendOverhead, cfg.RecvOverhead, cfg.GapPerByte, procs)
}

func (s *Spec) verifyKey() string {
	if s.SkipVerify {
		return "noverify"
	}
	return fmt.Sprintf("verify:%s:%v tol:%g", s.Bench, s.VerifyArrays, VerifyTol)
}

// evalFull memoizes the compile+simulate+verify of one candidate.
// Errors — including prune aborts — are never cached, so a pruned
// candidate re-evaluates (and re-prunes deterministically) next time.
func (t *Tuner) evalFull(ctx context.Context, s *Spec, c Candidate, limit float64) (fullEval, bool, error) {
	var key string
	if c.Scheme == SchemeTranspose {
		key = cache.Key("eval", SchemeTranspose, s.Bench,
			strconv.Itoa(s.N), strconv.Itoa(s.Steps), strconv.Itoa(s.Procs),
			machineKey(s.Machine, s.Procs), s.verifyKey())
	} else {
		key = cache.Key("eval", SchemeBlock,
			passes.FingerprintKey(s.Source, c.params(s), c.options()),
			machineKey(s.Machine, s.Procs), s.verifyKey())
	}
	return t.evals.GetOrCompute(ctx, key, func(ctx context.Context) (fullEval, int64, error) {
		ev, err := t.evalOnce(ctx, s, c, limit)
		return ev, 1, err
	})
}

func (t *Tuner) evalOnce(ctx context.Context, s *Spec, c Candidate, limit float64) (fullEval, error) {
	cfg := s.Machine
	cfg.TimeLimit = limit

	var ev fullEval
	var ref map[string][]float64
	if !s.SkipVerify {
		var err error
		if ref, err = t.serialRef(ctx, s, c); err != nil {
			return ev, fmt.Errorf("serial reference: %w", err)
		}
	}

	arrays := map[string][]float64{}
	if c.Scheme == SchemeTranspose {
		run, err := nas.RunTranspose(s.Bench, s.N, s.Steps, s.Procs, cfg)
		if err != nil {
			return ev, err
		}
		ev.Seconds = run.Machine.Time
		ev.Msgs = run.Machine.TotalMessages()
		ev.Bytes = run.Machine.TotalBytes()
		// The hand-coded transpose exposes the solution and the
		// residual in the serial layout; the comparison below checks
		// whichever of them the verify set covers.
		arrays["u"] = run.U
		if s.Bench == "sp" {
			arrays["rhs"] = run.R
		} else {
			arrays["r"] = run.R
		}
	} else {
		prog, err := spmd.CompileSourceCtx(ctx, s.Source, c.params(s), c.options())
		if err != nil {
			return ev, fmt.Errorf("compile: %w", err)
		}
		if testCorrupt != nil {
			testCorrupt(prog)
		}
		// Safety gate: a candidate that fails translation validation never
		// reaches the leaderboard, whatever its virtual time.  The proof
		// is recomputed here (not read off the compile) because an
		// ablation may have disabled the in-pipeline verify pass, and the
		// test hook above can invalidate the compiled analyses.
		if rep, verr := prog.Verify(); verr != nil {
			return ev, fmt.Errorf("safety gate: %w", verr)
		} else if !rep.Clean() {
			errs := rep.Errors()
			return ev, fmt.Errorf("safety gate: candidate fails %d obligations: %s", len(errs), errs[0])
		}
		cfg.Procs = prog.Grid.Size()
		engine, err := spmd.ParseEngine(s.Engine)
		if err != nil {
			return ev, err
		}
		er, err := prog.ExecuteEngine(cfg, engine)
		if err != nil {
			return ev, err
		}
		ev.Seconds = er.Machine.Time
		ev.Msgs = er.Machine.TotalMessages()
		ev.Bytes = er.Machine.TotalBytes()
		for name := range ref {
			data, _, _, err := er.Global(name)
			if err != nil {
				return ev, fmt.Errorf("verify: %w", err)
			}
			arrays[name] = data
		}
	}
	if s.SkipVerify {
		return ev, nil
	}

	var first error
	for _, name := range sortedArrayKeys(arrays) {
		want, ok := ref[name]
		if !ok {
			continue // transpose exposes a superset of the verify set
		}
		got := arrays[name]
		if len(got) != len(want) {
			return ev, fmt.Errorf("verify: array %q has %d elements, serial has %d", name, len(got), len(want))
		}
		ev.Compared++
		worst, err := spmd.Agree(name, got, want, VerifyTol)
		ev.MaxRelErr = max(ev.MaxRelErr, worst)
		if first == nil {
			first = err
		}
	}
	if ev.Compared == 0 {
		return ev, errors.New("verify: no arrays in common with the serial reference")
	}
	switch {
	case ev.MaxRelErr > VerifyTol:
		ev.Mismatch = fmt.Sprintf("max rel err %.3g exceeds tol %.3g vs serial reference", ev.MaxRelErr, VerifyTol)
	case first != nil: // a NaN or an infinity, which no finite error measures
		ev.Mismatch = fmt.Sprintf("verify: %v vs serial reference", first)
	default:
		ev.Verified = true
	}
	return ev, nil
}

// screen scores one feasible candidate at the target size by its clock
// on the virtual machine, memoized by candidate and machine.  The
// transpose point is the hand-written PGI-style code run without its
// arrays (nas.ClockTranspose) — the clock RunTranspose reports.  A block
// candidate's score is the virtual time of its dry run
// (spmd.Program.DryRun): the clock Execute would report, with no array
// touched.  Bench sources expose their problem size as the N and STEPS
// parameters and are dry-run at the target size; generic sources at
// their source size.
func (t *Tuner) screen(ctx context.Context, s *Spec, c Candidate) (float64, error) {
	cfg := s.Machine
	cfg.TimeLimit = 0
	if c.Scheme == SchemeTranspose {
		key := cache.Key("screen", SchemeTranspose, s.Bench,
			strconv.Itoa(s.TargetN), strconv.Itoa(s.TargetSteps), strconv.Itoa(s.Procs), machineKey(s.Machine, s.Procs))
		secs, _, err := t.screens.GetOrCompute(ctx, key, func(context.Context) (float64, int64, error) {
			run, err := nas.ClockTranspose(s.Bench, s.TargetN, s.TargetSteps, s.Procs, cfg)
			if err != nil {
				return 0, 0, err
			}
			return run.Time, 1, nil
		})
		return secs, err
	}
	params := c.params(s)
	if s.Bench != "" {
		params["N"], params["STEPS"] = s.TargetN, s.TargetSteps
	}
	key := cache.Key("screen", passes.FingerprintKey(s.Source, params, c.options()), machineKey(s.Machine, s.Procs))
	secs, _, err := t.screens.GetOrCompute(ctx, key, func(ctx context.Context) (float64, int64, error) {
		prog, err := spmd.CompileSourceCtx(ctx, s.Source, params, c.options())
		if err != nil {
			return 0, 0, fmt.Errorf("compile: %w", err)
		}
		cfg.Procs = prog.Grid.Size()
		_, run, err := prog.DryRun(cfg)
		if err != nil {
			return 0, 0, err
		}
		return run.Time, 1, nil
	})
	return secs, err
}

func sortedArrayKeys(m map[string][]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// serialRef computes (once) the serial reference arrays for the
// candidate's parameter binding.  The cache key drops the grid-shape
// parameters — they only steer directives — so every grid shape shares
// one reference run.
func (t *Tuner) serialRef(ctx context.Context, s *Spec, c Candidate) (map[string][]float64, error) {
	params := c.params(s)
	keyParts := []string{"serial", s.Source}
	for _, k := range sortedKeys(params) {
		if k == s.GridParams[0] || k == s.GridParams[1] {
			continue
		}
		keyParts = append(keyParts, fmt.Sprintf("%s=%d", k, params[k]))
	}
	ref, _, err := t.serials.GetOrCompute(ctx, cache.Key(keyParts...), func(ctx context.Context) (map[string][]float64, int64, error) {
		prog, err := parser.Parse(s.Source)
		if err != nil {
			return nil, 0, err
		}
		sr, err := spmd.RunSerial(prog, params)
		if err != nil {
			return nil, 0, err
		}
		names := s.VerifyArrays
		if len(names) == 0 {
			if s.Bench != "" {
				// The benchmark's solution array is the meaningful
				// output (matching the repo's existing verification
				// tests); generic sources check everything.
				names = []string{"u"}
			} else {
				names = sr.Names()
			}
		}
		out := map[string][]float64{}
		var size int64
		for _, n := range names {
			data, _, _, err := sr.Array(n)
			if err != nil {
				if len(s.VerifyArrays) > 0 {
					return nil, 0, err
				}
				continue
			}
			cp := append([]float64{}, data...)
			out[n] = cp
			size += int64(len(cp) * 8)
		}
		return out, size, nil
	})
	return ref, err
}
