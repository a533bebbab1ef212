package tune

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"dhpf/internal/comm"
	"dhpf/internal/cp"
	"dhpf/internal/ir"
	"dhpf/internal/mpsim"
	"dhpf/internal/nas"
	"dhpf/internal/passes"
	"dhpf/internal/perfmodel"
	"dhpf/internal/spmd"
)

func specSP(procs, n, steps int) Spec {
	return Spec{
		Source: nas.SPSource(n, steps, 1, procs),
		Bench:  "sp",
		N:      n,
		Steps:  steps,
		Procs:  procs,
	}
}

func leaderboard(t *testing.T, res *Result) []string {
	t.Helper()
	rows := make([]string, 0, len(res.Entries))
	for _, e := range res.Entries {
		rows = append(rows, e.Key()+" "+e.Status)
	}
	return rows
}

// The acceptance property: a fixed spec produces an identical ranked
// leaderboard on repeated runs — on a warm tuner (memo hits) and on a
// cold one.
func TestTuneDeterministicLeaderboard(t *testing.T) {
	s := specSP(4, 12, 1)
	s.Grains = []int{4, 8}
	s.TopK = 3
	s.Workers = 2

	tu := New()
	first, err := tu.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := tu.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := New().Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}

	for name, res := range map[string]*Result{"warm": warm, "cold": cold} {
		if got, want := leaderboard(t, res), leaderboard(t, first); !equalStrings(got, want) {
			t.Errorf("%s leaderboard differs:\n got %v\nwant %v", name, got, want)
		}
		for i := range res.Entries {
			a, b := res.Entries[i], first.Entries[i]
			if a.Screen != b.Screen || a.Sim != b.Sim || a.Rank != b.Rank {
				t.Errorf("%s entry %d differs: %+v vs %+v", name, i, a, b)
			}
		}
	}
	if warm.Counters.MemoHits == 0 {
		t.Errorf("second run on the same tuner hit no memoized evaluations: %+v", warm.Counters)
	}
	if first.Counters.MemoHits != 0 {
		t.Errorf("first run should miss the memo cache: %+v", first.Counters)
	}
	if first.Winner == nil || !first.Winner.Verified {
		t.Fatalf("winner missing or unverified: %+v", first.Winner)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Table 8.1 at 16 processors and Class A scale, as the tuner sees it:
// it executes at a tractable source size (18³) but ranks by the dry run
// at the target size (64³).  The paper has the compiled 2-D BLOCK code
// beating the PGI-style 1-D transpose code there; the compiled program's
// own clock does not (EXPERIMENTS "Known divergences" #4), so the
// transpose point wins, at the target and at the source size alike.
// What the tuner must rediscover is the table's dHPF configuration: the
// best block candidate is the table's grid, nas.GridShape(16) = 4×4,
// screened at exactly the table's per-step dry run — one cost model —
// and the degenerate 1×16/16×1 grids, whose 2-point blocks the executor
// cannot pipeline, are refused.
func TestTuneSPRediscoversTable81At16Ranks(t *testing.T) {
	s := specSP(16, 18, 1)
	s.TargetN = 64
	s.Grains = []int{8}
	s.TopK = 4 // three feasible grids + the transpose comparison point

	res, err := New().Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	var block, transpose *Entry
	infeasible := map[string]bool{}
	for i := range res.Entries {
		e := &res.Entries[i]
		switch {
		case e.Scheme == SchemeTranspose:
			transpose = e
		case e.Status == StatusInfeasible:
			infeasible[e.Key()] = true
		case block == nil:
			block = e
		}
	}
	if transpose == nil || block == nil {
		t.Fatalf("leaderboard lacks a transpose or a block entry: %v", leaderboard(t, res))
	}
	if res.Winner != transpose || transpose.Status != StatusOK || transpose.Screen >= block.Screen || transpose.Sim >= block.Sim {
		t.Errorf("measured ordering changed: the transpose point should win, screened %.4g vs block %.4g, executed %.4g vs %.4g\n%v",
			transpose.Screen, block.Screen, transpose.Sim, block.Sim, leaderboard(t, res))
	}
	if block.Key() != "block 4x4 g8" || block.Rank != 2 || !block.Verified {
		t.Errorf("best block candidate %s (rank %d, verified %v), want the table's 4x4 g8 at rank 2", block.Key(), block.Rank, block.Verified)
	}
	p1, p2 := nas.GridShape(16)
	table, _, err := perfmodel.DryRunDHPF("sp", 64, 1, p1, p2, mpsim.SP2Config(16), 8)
	if err != nil {
		t.Fatal(err)
	}
	if block.Screen != table {
		t.Errorf("block 4x4 screened %v, the table's dHPF column dry-runs %v", block.Screen, table)
	}
	for _, key := range []string{"block 1x16 g8", "block 16x1 g8"} {
		if !infeasible[key] {
			t.Errorf("degenerate grid %q should be infeasible; entries: %v", key, leaderboard(t, res))
		}
	}
}

// With a sub-1 prune factor and single-worker waves, every survivor
// after the first must beat the incumbent by a wide margin or be
// abandoned — and the abandonment must reproduce identically on a rerun
// even though pruned evaluations are never cached.
func TestTunePruningDeterministic(t *testing.T) {
	s := specSP(4, 12, 1)
	s.Grains = []int{8}
	s.TopK = 3
	s.Workers = 1
	s.PruneFactor = 0.05 // only a 20× speedup over the incumbent survives

	tu := New()
	first, err := tu.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if first.Counters.Pruned != 2 {
		t.Fatalf("want the two later waves pruned, got %+v\n%v", first.Counters, first.Trail)
	}
	if first.Winner == nil {
		t.Fatal("pruning must still leave the wave-1 winner")
	}
	again, err := tu.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := leaderboard(t, again), leaderboard(t, first); !equalStrings(got, want) {
		t.Errorf("pruned leaderboard not reproducible:\n got %v\nwant %v", got, want)
	}
	if again.Counters.Pruned != first.Counters.Pruned {
		t.Errorf("prune counts differ across runs: %d vs %d", again.Counters.Pruned, first.Counters.Pruned)
	}
}

const genericSrc = `
program relax
param N = 24
param P1 = 1
param P2 = 4

!hpf$ processors procs(P1, P2)
!hpf$ template tm(N, N)
!hpf$ align a with tm(d0, d1)
!hpf$ align b with tm(d0, d1)
!hpf$ distribute tm(BLOCK, BLOCK) onto procs

subroutine main()
  real a(0:N-1, 0:N-1)
  real b(0:N-1, 0:N-1)
  do j = 0, N-1
    do i = 0, N-1
      a(i,j) = 1.0 + 0.01*i + 0.02*j
      b(i,j) = 0.0
    enddo
  enddo
  do t = 1, 3
    do j = 1, N-2
      do i = 1, N-2
        b(i,j) = 0.25*(a(i-1,j) + a(i+1,j) + a(i,j-1) + a(i,j+1))
      enddo
    enddo
    do j = 1, N-2
      do i = 1, N-2
        a(i,j) = b(i,j)
      enddo
    enddo
  enddo
end
`

// A source outside the benchmark family is screened at its source size
// and the full tier verifies every main array against the serial
// reference.
func TestTuneGenericSource(t *testing.T) {
	s := Spec{
		Source: genericSrc,
		Procs:  4,
		Grains: []int{8},
		TopK:   8,
	}
	res, err := New().Run(context.Background(), s)
	if err != nil {
		t.Fatalf("%v\ntrail: %v", err, res.Trail)
	}
	if res.Winner == nil || !res.Winner.Verified {
		t.Fatalf("winner missing or unverified: %+v", res.Winner)
	}
	if res.Winner.ComparedArrays < 2 {
		t.Errorf("generic mode should verify every main array, compared %d", res.Winner.ComparedArrays)
	}
	var lastSim float64
	for _, e := range res.Entries {
		if e.Status != StatusOK {
			continue
		}
		if e.Sim < lastSim {
			t.Errorf("ok entries not sorted by simulated time: %v", leaderboard(t, res))
		}
		lastSim = e.Sim
	}
}

// The screen is each candidate's own clock: where the target size is
// the source size, the run the screen reads and the execution the full
// tier measures are one run of one program, so every fully evaluated
// entry screens at exactly its simulated time — block entries (a dry run
// against Execute) on bench and generic sources and every backend, and
// the transpose point (the hand-written code without its arrays against
// it with them).
func TestScreenIsTheSimulatedClock(t *testing.T) {
	bench := specSP(4, 12, 1)
	bench.Grains = []int{4, 8}
	bench.Backends = []string{passes.BackendMP, passes.BackendShm, passes.BackendHybrid}
	bench.TopK = 16
	generic := Spec{Source: genericSrc, Procs: 4, Grains: []int{8}, TopK: 8}
	for name, s := range map[string]Spec{"sp": bench, "generic": generic} {
		res, err := New().Run(context.Background(), s)
		if err != nil {
			t.Fatalf("%s: %v\ntrail: %v", name, err, res.Trail)
		}
		checked := map[string]int{}
		for _, e := range res.Entries {
			if e.Status != StatusOK {
				continue
			}
			checked[e.Scheme]++
			if math.Float64bits(e.Screen) != math.Float64bits(e.Sim) {
				t.Errorf("%s: %s screened %v, executed %v", name, e.Key(), e.Screen, e.Sim)
			}
		}
		if checked[SchemeBlock] < 3 {
			t.Errorf("%s: only %d block entries fully evaluated: %v", name, checked[SchemeBlock], leaderboard(t, res))
		}
		if name == "sp" && checked[SchemeTranspose] != 1 {
			t.Errorf("%s: the transpose point was not fully evaluated: %v", name, leaderboard(t, res))
		}
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []Spec{
		{},                                   // no source
		{Source: "x", Procs: 0},              // no procs
		{Source: "x", Procs: 4, Bench: "lu"}, // unknown bench
		{Source: "x", Procs: 4, Bench: "sp"}, // bench without size
		{Source: "x", Procs: 4, Backends: []string{"cuda"}}, // unknown backend
	}
	for i, s := range cases {
		if _, err := New().Run(context.Background(), s); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
}

// The backend dimension: with Backends = {mp, shm, hybrid} the tuner
// crosses substrates with grids and grains, evaluates each feasible
// point through the full tier (so the race-freedom theorem gates the
// shared-memory candidates), records the backend in every entry's key
// and JSON, and — because the shared-memory substrate pays pull costs
// instead of message costs for identical flops — crowns an shm-backed
// winner.  The whole leaderboard must reproduce on a cold tuner.
func TestTuneBackendSearch(t *testing.T) {
	s := specSP(4, 12, 1)
	s.Grids = [][2]int{{2, 2}, {1, 4}}
	s.Grains = []int{8}
	s.Backends = []string{passes.BackendMP, passes.BackendShm, passes.BackendHybrid}
	s.NoTranspose = true
	s.TopK = 5 // every feasible backend×grid point reaches the full tier

	tu := New()
	res, err := tu.Run(context.Background(), s)
	if err != nil {
		t.Fatalf("%v\ntrail: %v", err, res.Trail)
	}

	byKey := map[string]*Entry{}
	for i := range res.Entries {
		byKey[res.Entries[i].Key()] = &res.Entries[i]
	}
	for key, backend := range map[string]string{
		"block 2x2 g8":        passes.BackendMP,
		"block shm 2x2 g8":    passes.BackendShm,
		"block hybrid 2x2 g8": passes.BackendHybrid,
	} {
		e := byKey[key]
		if e == nil {
			t.Fatalf("candidate %q missing from leaderboard: %v", key, leaderboard(t, res))
		}
		if e.Status != StatusOK || !e.Verified {
			t.Errorf("%q not fully evaluated+verified: status %s, note %q", key, e.Status, e.Note)
		}
		if e.Backend != backend {
			t.Errorf("%q records backend %q, want %q", key, e.Backend, backend)
		}
		if e.Options == nil || e.Options.Backend != backend {
			t.Errorf("%q options do not reproduce the backend: %+v", key, e.Options)
		}
	}

	// Hybrid with one group is the pure-shm point; the tuner must prune
	// the duplicate up front rather than evaluate it twice.
	if e := byKey["block hybrid 1x4 g8"]; e == nil || e.Status != StatusInfeasible {
		t.Errorf("degenerate hybrid 1x4 should be infeasible: %+v", e)
	}

	// Substrate economics: the shm run of the same grid must move zero
	// messages and finish in less virtual time than its mp twin; hybrid
	// sits in between, with only the outer (cross-group) traffic.
	mp, shm, hyb := byKey["block 2x2 g8"], byKey["block shm 2x2 g8"], byKey["block hybrid 2x2 g8"]
	if shm.Msgs != 0 {
		t.Errorf("shm candidate reports %d messages, want 0", shm.Msgs)
	}
	if mp.Msgs == 0 {
		t.Errorf("mp candidate reports no messages")
	}
	if hyb.Msgs == 0 || hyb.Msgs >= mp.Msgs {
		t.Errorf("hybrid outer traffic should be positive and below mp: hybrid %d vs mp %d", hyb.Msgs, mp.Msgs)
	}
	if shm.Sim >= mp.Sim {
		t.Errorf("shm not faster than mp on the same grid: %.6g vs %.6g", shm.Sim, mp.Sim)
	}
	if shm.Screen >= mp.Screen {
		t.Errorf("screen does not favor shm at the target size: %.6g vs %.6g", shm.Screen, mp.Screen)
	}
	if res.Winner == nil || res.Winner.Backend != passes.BackendShm {
		t.Fatalf("winner should be shm-backed: %+v", res.Winner)
	}

	cold, err := New().Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := leaderboard(t, cold), leaderboard(t, res); !equalStrings(got, want) {
		t.Errorf("backend leaderboard not reproducible:\n got %v\nwant %v", got, want)
	}
	if cold.Winner.Key() != res.Winner.Key() {
		t.Errorf("winner differs across cold runs: %q vs %q", cold.Winner.Key(), res.Winner.Key())
	}
}

// The safety gate applies per backend: the corrupted-partition overlap
// that the race theorem catches under shm is a verification error for
// the shm candidate while the untouched mp twin of the same grid still
// wins the leaderboard.
func TestTuneBackendSafetyGate(t *testing.T) {
	// Re-home genericSrc's relaxation statement onto the owners of two
	// fixed columns: the ranks owning columns 5 and 15 then execute every
	// iteration and write the same elements of b in one barrier phase.
	overlap := &cp.CP{}
	for _, col := range []int{5, 15} {
		overlap.AddTerm(cp.Term{Array: "a", Subs: []cp.HomeSub{
			{Var: "i", Coef: 1, Off: ir.Num(0)},
			{Off: ir.Num(col)},
		}})
	}
	rejected := tuneShmCorrupted(t, "", func(p *spmd.Program, a *ir.Assign) { p.Sel.CPs[a.ID] = overlap })
	if rejected.Status != StatusError {
		t.Fatalf("corrupted shm candidate not rejected: %+v", rejected)
	}
	if !strings.Contains(rejected.Note, "safety gate") {
		t.Errorf("rejection note lacks the gate: %q", rejected.Note)
	}
}

// A candidate that computes a NaN where serial has a finite value is
// not verified: its note names the array and the element, and its
// max_rel_err stays finite, so the result still encodes as JSON.  The
// interpreter evaluates the IR as the hook leaves it; the serial
// reference runs the source.
func TestTuneRejectsNaNCandidate(t *testing.T) {
	nan := tuneShmCorrupted(t, "interp", func(_ *spmd.Program, a *ir.Assign) {
		a.RHS = &ir.Bin{Op: '*', L: ir.FloatConst{Val: math.NaN()}, R: a.RHS}
	})
	if nan.Status != StatusMismatch || nan.Verified || !strings.Contains(nan.Note, "a[") || !strings.Contains(nan.Note, "got NaN") {
		t.Fatalf("the NaN candidate is not a mismatch naming a's element: %+v", nan)
	}
	if _, err := json.Marshal(nan); err != nil {
		t.Errorf("the entry does not encode: %v", err)
	}
}

// tuneShmCorrupted tunes genericSrc on a 1×4 grid over mp and shm with
// corrupt applied to the shm candidate's relaxation statement, requires
// the untouched mp twin to win, and returns the shm entry.
func tuneShmCorrupted(t *testing.T, engine string, corrupt func(*spmd.Program, *ir.Assign)) *Entry {
	t.Helper()
	testCorrupt = func(p *spmd.Program) {
		if b, _ := passes.ParseBackend(p.Opt.Backend); b != passes.BackendShm {
			return
		}
		for _, proc := range p.IR.Procs {
			ir.Walk(proc.Body, func(s ir.Stmt, loops []*ir.Loop) bool {
				if a, ok := s.(*ir.Assign); ok && a.LHS.Name == "b" && len(loops) == 3 {
					corrupt(p, a)
				}
				return true
			})
		}
	}
	defer func() { testCorrupt = nil }()
	s := Spec{
		Source:   genericSrc,
		Procs:    4,
		Grids:    [][2]int{{1, 4}},
		Grains:   []int{8},
		Backends: []string{passes.BackendMP, passes.BackendShm},
		Engine:   engine,
		TopK:     2,
	}
	res, err := New().Run(context.Background(), s)
	if err != nil {
		t.Fatalf("%v\ntrail: %v", err, res.Trail)
	}
	if res.Winner == nil || res.Winner.Backend != passes.BackendMP || !res.Winner.Verified {
		t.Fatalf("the mp twin should verify and win: %+v", res.Winner)
	}
	for i := range res.Entries {
		if res.Entries[i].Backend == passes.BackendShm {
			return &res.Entries[i]
		}
	}
	t.Fatal("no shm entry")
	return nil
}

// Cancelling the context mid-search surfaces the context error.
func TestTuneCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := specSP(4, 12, 1)
	if _, err := New().Run(ctx, s); err == nil {
		t.Error("cancelled tune returned no error")
	}
}

// The safety gate: a candidate whose compiled analyses fail translation
// validation is rejected with the verifier's diagnostic in the decision
// trail, never ranked.  The corruption hook deletes every read event —
// the same mutation as the verifier's own adversarial tests.
func TestTuneRejectsUnsafeCandidate(t *testing.T) {
	testCorrupt = func(p *spmd.Program) {
		a := p.Comm["main"]
		var kept []*comm.Event
		for _, e := range a.Events {
			if e.Kind != comm.ReadComm {
				kept = append(kept, e)
			}
		}
		a.Events = kept
	}
	defer func() { testCorrupt = nil }()

	s := Spec{
		Source: genericSrc,
		Procs:  4,
		Grids:  [][2]int{{1, 4}},
		Grains: []int{8},
		TopK:   1,
	}
	res, err := New().Run(context.Background(), s)
	if err == nil {
		t.Fatalf("corrupted candidate won:\n%v", leaderboard(t, res))
	}
	var rejected *Entry
	for i := range res.Entries {
		if res.Entries[i].Status == StatusError {
			rejected = &res.Entries[i]
		}
	}
	if rejected == nil {
		t.Fatalf("no error entry:\n%v", leaderboard(t, res))
	}
	if !strings.Contains(rejected.Note, "safety gate") ||
		!strings.Contains(rejected.Note, "covered by no communication event") {
		t.Errorf("rejection note lacks the diagnostic: %q", rejected.Note)
	}
	trail := strings.Join(res.Trail, "\n")
	if !strings.Contains(trail, "safety gate") || !strings.Contains(trail, "[comm]") {
		t.Errorf("decision trail lacks the safety-gate diagnostic:\n%s", trail)
	}
}

// A candidate that deadlocks is not a slow candidate: the tuner sweeps
// Disable, so it does try ysolve without availability analysis, and must
// file it as an error carrying the cycle — at once, at the screen, whose
// dry run is the run that deadlocks, and never as "pruned … abandoned at
// virtual limit".  No execution is spent on it.
func TestTuneReportsDeadlockedCandidate(t *testing.T) {
	src, err := os.ReadFile("../../testdata/ysolve.hpf")
	if err != nil {
		t.Fatal(err)
	}
	s := Spec{
		Source:    string(src),
		Procs:     4,
		Grains:    []int{8},
		Ablations: [][]string{nil, {passes.PassAvailability}},
		TopK:      8,
	}
	start := time.Now()
	res, err := New().Run(context.Background(), s)
	if err != nil {
		t.Fatalf("%v\ntrail: %v", err, res.Trail)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("tuning took %v: a deadlocked candidate is rejected when it stops, not when a clock runs out", took)
	}
	if res.Winner == nil || len(res.Winner.Disable) != 0 {
		t.Fatalf("winner %+v, want the candidate with nothing disabled", res.Winner)
	}
	hung := 0
	for _, e := range res.Entries {
		if len(e.Disable) == 0 {
			continue
		}
		hung++
		if e.Status != StatusError || !strings.HasPrefix(e.Note, "deadlock: rank 0 <- rank 1 tag ") {
			t.Errorf("%s: %s %q, want an error whose note is the cycle", e.Key(), e.Status, e.Note)
		}
		if e.Screen != 0 || e.Sim != 0 {
			t.Errorf("%s: screened %v, executed %v: a deadlocked candidate has neither", e.Key(), e.Screen, e.Sim)
		}
	}
	if hung == 0 {
		t.Fatalf("no candidate disabled availability: %v", leaderboard(t, res))
	}
	if got, want := res.Counters.FullEvals, res.Counters.Screened; got != want {
		t.Errorf("%d full evaluations for %d screened candidates: a deadlocked one reached the full tier", got, want)
	}
	if got, want := res.Counters.Screened+res.Counters.Infeasible+hung, res.Counters.Candidates; got != want {
		t.Errorf("%d screened + %d infeasible + %d deadlocked of %d candidates", res.Counters.Screened, res.Counters.Infeasible, hung, want)
	}
}

// The tuner sweeps Disable, so it tries a program whose CP selection
// marks a pair without the loopdist pass that separates it.  The compile
// refuses that candidate, naming the pair, and the screen files it as an
// error: it is never run, so it can never win with a wrong answer.
func TestTuneReportsUndistributedPair(t *testing.T) {
	src, err := os.ReadFile("../cp/testdata/conflict2.hpf")
	if err != nil {
		t.Fatal(err)
	}
	s := Spec{
		Source:    string(src),
		Procs:     4,
		Grains:    []int{8},
		Ablations: [][]string{nil, {passes.PassLoopDist}},
	}
	res, _ := New().Run(context.Background(), s)
	if res == nil {
		t.Fatal("no result")
	}
	refused := 0
	for _, e := range res.Entries {
		if len(e.Disable) == 0 {
			continue
		}
		refused++
		if e.Status != StatusError || !strings.Contains(e.Note, "have no common CP and only loopdist separates them") {
			t.Errorf("%s: %s %q, want an error naming the marked pair", e.Key(), e.Status, e.Note)
		}
		if e.Screen != 0 || e.Sim != 0 {
			t.Errorf("%s: screened %v, executed %v: a refused candidate has neither", e.Key(), e.Screen, e.Sim)
		}
	}
	if refused == 0 {
		t.Fatalf("no candidate disabled loopdist: %v", leaderboard(t, res))
	}
}
