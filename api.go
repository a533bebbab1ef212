package dhpf

import (
	"fmt"

	"dhpf/internal/analysis"
	"dhpf/internal/cp"
	"dhpf/internal/passes"
	"dhpf/internal/verify"
)

// This file defines the wire types of the dhpfd compile service's
// HTTP/JSON API (v1).  They are shared by internal/service (the server)
// and Client (the client), so the two cannot drift.

// RequestOptions is the JSON form of Options.  Absent fields take the
// paper's defaults (DefaultOptions).
type RequestOptions struct {
	// NewProp is the §4.1 privatizable-array mode: "translate"
	// (default), "owner", or "replicate".
	NewProp       string `json:"newprop,omitempty"`
	PipelineGrain int    `json:"pipeline_grain,omitempty"` // wavefront strip width (default 8)
	MaxCombos     int    `json:"max_combos,omitempty"`     // CP search cap
	// Disable drops optional passes by name (PassNames lists them) —
	// the one way to turn an optimization off.
	Disable []string `json:"disable,omitempty"`
	// Instrument enables the per-pass communication-volume probe
	// reported in pass_stats (costs one comm analysis per pass).
	Instrument bool `json:"instrument,omitempty"`
	// Backend selects the execution substrate the program is compiled
	// for: "mp" (message-passing, the default), "shm" (shared-memory
	// threads with barrier phases), or "hybrid" (ranks across grid
	// dimension 0 × threads within a rank).  The backend is part of the
	// compile fingerprint: it changes the verifier's obligations (shm
	// adds the race-freedom theorem), not the numerics.
	Backend string `json:"backend,omitempty"`
}

// Resolve converts the request options to pipeline Options, applying
// defaults for absent fields.  A nil receiver means DefaultOptions.
func (r *RequestOptions) Resolve() (Options, error) {
	opt := DefaultOptions()
	if r == nil {
		return opt, nil
	}
	switch r.NewProp {
	case "", "translate":
		opt.CP.NewProp = cp.NewPropTranslate
	case "owner":
		opt.CP.NewProp = cp.NewPropOwner
	case "replicate":
		opt.CP.NewProp = cp.NewPropReplicate
	default:
		return opt, fmt.Errorf("unknown newprop mode %q (want translate, owner or replicate)", r.NewProp)
	}
	if r.PipelineGrain != 0 {
		opt.PipelineGrain = r.PipelineGrain
	}
	if r.MaxCombos != 0 {
		opt.CP.MaxCombos = r.MaxCombos
	}
	opt.Disable = append([]string{}, r.Disable...)
	opt.Instrument = r.Instrument
	if r.Backend != "" {
		b, err := passes.ParseBackend(r.Backend)
		if err != nil {
			return opt, err
		}
		opt.Backend = b
	}
	return opt, nil
}

// RequestOptionsFrom converts pipeline Options to their wire form —
// the inverse of Resolve, up to defaults.  The auto-tuner uses it to
// emit a winner's configuration as a /v1/compile-ready fragment.
func RequestOptionsFrom(o Options) *RequestOptions {
	r := &RequestOptions{
		PipelineGrain: o.PipelineGrain,
		MaxCombos:     o.CP.MaxCombos,
		Instrument:    o.Instrument,
	}
	switch o.CP.NewProp {
	case cp.NewPropOwner:
		r.NewProp = "owner"
	case cp.NewPropReplicate:
		r.NewProp = "replicate"
	default:
		r.NewProp = "translate"
	}
	if len(o.Disable) > 0 {
		r.Disable = append([]string{}, o.Disable...)
	}
	if b, err := passes.ParseBackend(o.Backend); err == nil && b != passes.BackendMP {
		r.Backend = b
	}
	return r
}

// CompileRequest asks the service to compile mini-HPF source.  The
// (source, params, options) triple is the cache key; identical requests
// are served from the content-addressed program cache.
type CompileRequest struct {
	Source string         `json:"source"`
	Params map[string]int `json:"params,omitempty"`
	// Options defaults to the paper's configuration when absent.
	Options *RequestOptions `json:"options,omitempty"`
	// Ranks selects which ranks' node programs /v1/compile returns
	// (out-of-range ranks are an error); nil means every rank.
	Ranks []int `json:"ranks,omitempty"`
}

// PassStatJSON is the JSON form of one pass's instrumentation record.
type PassStatJSON struct {
	Name    string   `json:"name"`
	WallNS  int64    `json:"wall_ns"`
	Summary string   `json:"summary,omitempty"`
	Notes   []string `json:"notes,omitempty"`
	// Msgs/Bytes are present when the program was compiled with
	// options.instrument; DeltaBytes once a preceding pass was also
	// measured.
	Measured   bool   `json:"measured,omitempty"`
	Msgs       int64  `json:"msgs,omitempty"`
	Bytes      int64  `json:"bytes,omitempty"`
	DeltaBytes *int64 `json:"delta_bytes,omitempty"`
	// Cached marks a pass whose per-procedure work was satisfied from
	// the artifact store (incremental compile), or — on a whole-program
	// cache hit — a pass that did not run at all for this request.
	Cached bool `json:"cached,omitempty"`
}

// PassStatsJSON converts pass records to their wire form.
func PassStatsJSON(stats []PassStat) []PassStatJSON {
	out := make([]PassStatJSON, len(stats))
	for i, st := range stats {
		out[i] = PassStatJSON{
			Name:     st.Name,
			WallNS:   st.Wall.Nanoseconds(),
			Summary:  st.Summary,
			Notes:    st.Notes,
			Measured: st.Measured,
			Msgs:     st.Msgs,
			Bytes:    st.Bytes,
			Cached:   st.Cached,
		}
		if st.HasDelta {
			d := st.DeltaBytes
			out[i].DeltaBytes = &d
		}
	}
	return out
}

// CachedPassStatsJSON is the wire form of a whole-program cache hit: the
// request did zero pass work, so every record reports zero wall time and
// Cached, keeping only the name and decision summary of the original
// compile.  (Previously a hit replayed the original compile's wall
// times, which inflated aggregate timing dashboards with work that
// never happened.)
func CachedPassStatsJSON(stats []PassStat) []PassStatJSON {
	out := make([]PassStatJSON, len(stats))
	for i, st := range stats {
		out[i] = PassStatJSON{Name: st.Name, Summary: st.Summary, Cached: true}
	}
	return out
}

// CompileResponse is /v1/compile's result: the compiler's report, the
// requested ranks' generated node programs, and the per-pass records.
type CompileResponse struct {
	Fingerprint string `json:"fingerprint"`
	Ranks       int    `json:"ranks"`
	Report      string `json:"report"`
	// NodePrograms maps rank → generated SPMD node program text.
	NodePrograms map[int]string `json:"node_programs,omitempty"`
	PassStats    []PassStatJSON `json:"pass_stats"`
	// Cached reports whether the compiled program came from the cache
	// (a stored entry or a coalesced in-flight compile).
	Cached bool `json:"cached"`
}

// BatchCompileRequest is /v1/compile/batch's body: several compile
// requests processed as one unit.  Batch members share the server's
// program cache and per-unit artifact store, so members that differ by
// one procedure (parameter sweeps, edit sequences) reuse each other's
// per-procedure analyses.
type BatchCompileRequest struct {
	Requests []CompileRequest `json:"requests"`
}

// BatchCompileResult is one batch member's outcome: the response, or the
// error that member failed with (other members still complete).
type BatchCompileResult struct {
	Response *CompileResponse `json:"response,omitempty"`
	Error    string           `json:"error,omitempty"`
}

// BatchCompileResponse is /v1/compile/batch's result, one entry per
// request, in request order.
type BatchCompileResponse struct {
	Results []BatchCompileResult `json:"results"`
}

// ExplainResponse is /v1/explain's result: the rendered per-pass table
// (what cmd/dhpfc -explain prints) plus the structured records.
type ExplainResponse struct {
	Fingerprint string         `json:"fingerprint"`
	Table       string         `json:"table"`
	PassStats   []PassStatJSON `json:"pass_stats"`
	Cached      bool           `json:"cached"`
}

// RunRequest compiles (through the cache) and executes the program on a
// named machine configuration.
type RunRequest struct {
	Source  string          `json:"source"`
	Params  map[string]int  `json:"params,omitempty"`
	Options *RequestOptions `json:"options,omitempty"`
	// Machine names the simulated machine: "sp2" (sized to the
	// program's rank count, the default) or "sp2:N" (N must match the
	// program's PROCESSORS arrangement).
	Machine string `json:"machine,omitempty"`
	// Arrays lists array names whose authoritative global contents the
	// response should include.
	Arrays []string `json:"arrays,omitempty"`
	// Engine selects the execution engine: "compiled" (the default),
	// "interp" (the reference tree-walking interpreter), or "codegen"
	// (native Go kernels where the checked-in generated corpus has one
	// for the program's units — it covers the NAS benchmarks — and the
	// default engine's evaluator elsewhere).  All engines produce
	// byte-identical results; the field exists for differential checks
	// and perf comparison.  Engine choice does not affect the
	// compile fingerprint — it is an execution-time concern.
	Engine string `json:"engine,omitempty"`
}

// ArrayJSON is one gathered global array: flattened data plus inclusive
// per-dimension bounds.
type ArrayJSON struct {
	Data []float64 `json:"data"`
	Lo   []int     `json:"lo"`
	Hi   []int     `json:"hi"`
}

// RunResponse is /v1/run's result: the virtual-time performance
// counters and any requested arrays.
type RunResponse struct {
	Fingerprint string    `json:"fingerprint"`
	Ranks       int       `json:"ranks"`
	Seconds     float64   `json:"seconds"`
	Messages    int64     `json:"messages"`
	Bytes       int64     `json:"bytes"`
	RankSeconds []float64 `json:"rank_seconds"`
	// Backend echoes the substrate the program ran on ("mp" omitted).
	// Under the shared-memory backends Messages/Bytes count only the
	// outer (cross-group) traffic — zero for pure shm — and Pulls /
	// PulledBytes count the direct memory-to-memory copies that replace
	// messages.
	Backend     string               `json:"backend,omitempty"`
	Pulls       int64                `json:"pulls,omitempty"`
	PulledBytes int64                `json:"pulled_bytes,omitempty"`
	Arrays      map[string]ArrayJSON `json:"arrays,omitempty"`
	Cached      bool                 `json:"cached"`
	// KernelCalls and NativeFlopShare say how much of the run registered
	// native kernels served (engine "codegen"; zero otherwise): loop-nest
	// invocations that ran one, and the share of all flops executed
	// inside them.  KernelBails counts, on the default engine too, the
	// invocations whose precheck declined a nest to the interpreter, keyed
	// by reason (absent when there were none).  Results never
	// depend on them; a codegen run whose share is near zero ran at the
	// default engine's speed.
	KernelCalls     int64            `json:"kernel_calls"`
	KernelBails     map[string]int64 `json:"kernel_bails,omitempty"`
	NativeFlopShare float64          `json:"native_flop_share"`
}

// TuneOptions configures an auto-tuning search (Tune, /v1/tune,
// cmd/dhpftune): the configuration space and the search budget.  Every
// zero field takes a default; see internal/tune for the search
// mechanics.
type TuneOptions struct {
	// Params are base parameter overrides applied to every candidate.
	Params map[string]int `json:"params,omitempty"`
	// Bench names the benchmark family of the source ("sp" or "bt"),
	// letting the screen run at the target size and unlocking the 1-D
	// transpose comparison scheme; empty means a generic source,
	// screened at its source size.
	Bench string `json:"bench,omitempty"`
	// N, Steps are the source problem size (bench mode).
	N     int `json:"n,omitempty"`
	Steps int `json:"steps,omitempty"`
	// TargetN, TargetSteps set the problem size the screen ranks for
	// (e.g. Class A's 64³); zero means the source size.
	TargetN     int `json:"target_n,omitempty"`
	TargetSteps int `json:"target_steps,omitempty"`
	// Procs is the virtual machine size (required).
	Procs int `json:"procs"`
	// GridParams names the source parameters that set the processor
	// grid shape (default {"P1","P2"}).
	GridParams [2]string `json:"grid_params,omitempty"`
	// Grids, Grains, Ablations, Sweep span the candidate space: grid
	// factorizations of Procs, pipeline strip widths, Options.Disable
	// subsets, and extra swept source parameters (e.g. a BLOCK(B)
	// block size).
	Grids     [][2]int         `json:"grids,omitempty"`
	Grains    []int            `json:"grains,omitempty"`
	Ablations [][]string       `json:"ablations,omitempty"`
	Sweep     map[string][]int `json:"sweep,omitempty"`
	// Backends lists the execution substrates the block scheme tries
	// ("mp", "shm", "hybrid"); empty means message-passing only.  The
	// tuner crosses every backend with every grid × grain × ablation
	// point and the leaderboard records each candidate's backend.
	Backends []string `json:"backends,omitempty"`
	// NoTranspose drops the 1-D transpose comparison candidate.
	NoTranspose bool `json:"no_transpose,omitempty"`
	// TopK bounds how many screen survivors get a full simulation
	// (default 3); MaxScreen caps the screened space via a
	// Seed-deterministic subsample (0 = screen everything); Workers
	// sizes the full tier's parallel waves (default 4); PruneFactor is
	// the early-abandon margin over the incumbent (default 4).
	TopK        int     `json:"top_k,omitempty"`
	MaxScreen   int     `json:"max_screen,omitempty"`
	Seed        int64   `json:"seed,omitempty"`
	Workers     int     `json:"workers,omitempty"`
	PruneFactor float64 `json:"prune_factor,omitempty"`
	// SkipVerify disables the serial-reference numerics check;
	// VerifyArrays restricts it to named arrays.
	SkipVerify   bool     `json:"skip_verify,omitempty"`
	VerifyArrays []string `json:"verify_arrays,omitempty"`
}

// TuneRequest is /v1/tune's body: the source plus the search options.
type TuneRequest struct {
	Source string `json:"source"`
	TuneOptions
}

// TuneEntry is one row of the tuner's ranked leaderboard.
type TuneEntry struct {
	// Key is the candidate's canonical identity, e.g. "block 2x8 g8".
	Key    string `json:"key"`
	Scheme string `json:"scheme"`
	// Backend is the candidate's execution substrate ("mp", "shm",
	// "hybrid").
	Backend string `json:"backend,omitempty"`
	P1      int    `json:"p1,omitempty"`
	P2      int    `json:"p2,omitempty"`
	Grain   int    `json:"grain,omitempty"`
	// Disable and Extra echo the candidate's ablations and swept
	// parameter bindings.
	Disable []string       `json:"disable,omitempty"`
	Extra   map[string]int `json:"extra,omitempty"`
	Rank    int            `json:"rank"`
	// Status: "ok" (simulated and verified), "screened" (ranked by the
	// screen only), "pruned", "mismatch", "error", "infeasible".
	Status string `json:"status"`
	// ScreenSeconds is the screen's time at the target size — a block
	// candidate's dry-run virtual time, the transpose point's virtual
	// time run without its arrays; SimSeconds the measured virtual time
	// at the source size.
	ScreenSeconds  float64 `json:"screen_seconds"`
	SimSeconds     float64 `json:"sim_seconds,omitempty"`
	SimMessages    int64   `json:"sim_messages,omitempty"`
	SimBytes       int64   `json:"sim_bytes,omitempty"`
	MaxRelErr      float64 `json:"max_rel_err,omitempty"`
	Verified       bool    `json:"verified,omitempty"`
	ComparedArrays int     `json:"compared_arrays,omitempty"`
	Cached         bool    `json:"cached,omitempty"`
	Note           string  `json:"note,omitempty"`
	// Params and Options replay the candidate through Compile or
	// /v1/compile.
	Params  map[string]int  `json:"params,omitempty"`
	Options *RequestOptions `json:"options,omitempty"`
}

// TuneCounters summarize the search effort, including the memoization
// behaviour of repeated Tune calls.
type TuneCounters struct {
	Candidates   int   `json:"candidates"`
	Screened     int   `json:"screened"`
	Infeasible   int   `json:"infeasible"`
	FullEvals    int   `json:"full_evals"`
	Pruned       int   `json:"pruned"`
	MemoHits     int   `json:"memo_hits"`
	MemoMisses   int   `json:"memo_misses"`
	ScreenWallNS int64 `json:"screen_wall_ns"`
	FullWallNS   int64 `json:"full_wall_ns"`
}

// TuneResult is the tuner's report: the winner, the full ranked
// leaderboard, effort counters, and the human-readable decision trail
// (why each candidate was pruned or rejected — the -explain analogue).
type TuneResult struct {
	Winner   *TuneEntry   `json:"winner,omitempty"`
	Entries  []TuneEntry  `json:"entries"`
	Counters TuneCounters `json:"counters"`
	Trail    []string     `json:"trail"`
}

// DiagnosticJSON is the shared wire form of one compiler finding.  Every
// diagnostic surface — the translation validator (-lint, /v1/verify) and
// the static analyzer (-analyze, /v1/analyze) — emits this one schema:
// which check fired (code), how severe, where in the program (proc,
// stmt), and the human explanation (message), plus the optional
// reference and rendered integer-set witness.  Tooling that consumes
// one surface's diagnostics consumes them all.
type DiagnosticJSON struct {
	Code     string `json:"code"`
	Severity string `json:"severity"`
	Proc     string `json:"proc"`
	Stmt     int    `json:"stmt"` // statement ID; -1 when not statement-scoped
	Ref      string `json:"ref,omitempty"`
	Set      string `json:"set,omitempty"` // rendered integer-set witness
	Message  string `json:"message"`
}

// VerifyDiagnostic is the shared diagnostic schema under its historical
// name.
type VerifyDiagnostic = DiagnosticJSON

// DiagnosticsJSON converts internal diagnostics to the shared wire
// schema.
func DiagnosticsJSON(ds []verify.Diagnostic) []DiagnosticJSON {
	var out []DiagnosticJSON
	for _, d := range ds {
		out = append(out, DiagnosticJSON{
			Code: d.Check, Severity: string(d.Severity), Proc: d.Proc,
			Stmt: d.Stmt, Ref: d.Ref, Set: d.Set, Message: d.Why,
		})
	}
	return out
}

// VerifyReport is the wire form of one verification run's outcome,
// shared by Program.Verify and /v1/verify.  Clean means no
// error-severity diagnostic; Text is the human rendering (what
// cmd/dhpfc -lint prints).
type VerifyReport struct {
	Clean       bool               `json:"clean"`
	Summary     string             `json:"summary"`
	Errors      int                `json:"errors"`
	Warnings    int                `json:"warnings"`
	Infos       int                `json:"infos"`
	Stmts       int                `json:"stmts"`
	Events      int                `json:"events"`
	Ranks       int                `json:"ranks"`
	Diagnostics []VerifyDiagnostic `json:"diagnostics,omitempty"`
	Text        string             `json:"text"`
}

// VerifyReportJSON converts a verifier report to its wire form.
func VerifyReportJSON(rep *verify.Report) VerifyReport {
	e, w, i := rep.Counts()
	out := VerifyReport{
		Clean: rep.Clean(), Summary: rep.Summary(),
		Errors: e, Warnings: w, Infos: i,
		Stmts: rep.Stmts, Events: rep.Events, Ranks: rep.Ranks,
		Text: rep.String(),
	}
	out.Diagnostics = DiagnosticsJSON(rep.Diagnostics)
	return out
}

// VerifyRequest asks the service to compile (through the program cache)
// and verify mini-HPF source.  The verifier always re-proves the safety
// theorems even when the compile itself was cached.
type VerifyRequest struct {
	Source  string          `json:"source"`
	Params  map[string]int  `json:"params,omitempty"`
	Options *RequestOptions `json:"options,omitempty"`
}

// VerifyResponse is /v1/verify's result.
type VerifyResponse struct {
	Fingerprint string `json:"fingerprint"`
	VerifyReport
	Cached bool `json:"cached"`
}

// AnalyzeCost is the static cost oracle's counter vector: per-rank
// flops, messages and bytes (message backend) or pulls, pulled bytes
// and barriers (shared-memory backends), integer-equal to what the
// virtual machines would measure when Exact is true.
type AnalyzeCost = analysis.Cost

// AnalyzeReport is the wire form of one static-analysis run's outcome,
// shared by Program.Analyze and /v1/analyze: the symbolic loop
// summaries (rendered in Text), the dataflow diagnostics in the shared
// schema, and the predicted execution cost.  Clean means no
// error-severity diagnostic (reads of never-defined distributed data);
// warnings flag dead stores, dead communication and redundant
// write-backs.
type AnalyzeReport struct {
	Clean    bool   `json:"clean"`
	Summary  string `json:"summary"`
	Errors   int    `json:"errors"`
	Warnings int    `json:"warnings"`
	Procs    int    `json:"procs"`
	Phases   int    `json:"phases"`
	// Diagnostics use the same schema as VerifyReport's.
	Diagnostics []DiagnosticJSON `json:"diagnostics,omitempty"`
	// Cost is the static cost oracle's prediction for the program's
	// backend.
	Cost *AnalyzeCost `json:"cost,omitempty"`
	// Text is the human rendering (what cmd/dhpfc -analyze prints).
	Text string `json:"text"`
}

// AnalyzeReportJSON converts an analysis result (plus the cost oracle's
// prediction, which may be nil) to its wire form.
func AnalyzeReportJSON(res *analysis.Result, cost *analysis.Cost) AnalyzeReport {
	phases := 0
	for _, p := range res.Procs {
		phases += len(p.Phases)
	}
	return AnalyzeReport{
		Clean: res.Clean(), Summary: res.Summary(),
		Errors: res.Errors(), Warnings: res.Warnings(),
		Procs: len(res.Procs), Phases: phases,
		Diagnostics: DiagnosticsJSON(res.Diagnostics),
		Cost:        cost,
		Text:        res.Text(),
	}
}

// AnalyzeRequest asks the service to compile (through the program
// cache) and statically analyze mini-HPF source: symbolic loop
// summaries, distributed-array dataflow diagnostics, and the cost
// oracle's predicted execution counters.
type AnalyzeRequest struct {
	Source  string          `json:"source"`
	Params  map[string]int  `json:"params,omitempty"`
	Options *RequestOptions `json:"options,omitempty"`
}

// AnalyzeResponse is /v1/analyze's result.
type AnalyzeResponse struct {
	Fingerprint string `json:"fingerprint"`
	AnalyzeReport
	Cached bool `json:"cached"`
}

// ProgramEntryJSON is one program-cache entry in transferable form:
// every rendered artifact of a compilation, but not the live program.
// It is what /v1/peer/fetch ships between fleet members and what the
// durable store persists (as chunks) across restarts.
type ProgramEntryJSON struct {
	Ranks  int    `json:"ranks"`
	Report string `json:"report"`
	// NodePrograms carries every rank (unlike CompileResponse, which
	// carries only the requested ones) — the receiver must be able to
	// serve any rank without a live program.
	NodePrograms map[int]string `json:"node_programs"`
	// PassStats are the cache-hit form of the records (zero wall time,
	// cached): an entry served from a peer or from disk did no pass work.
	PassStats []PassStatJSON `json:"pass_stats"`
	// Verify is the memoized translation-validation report, when one was
	// computed before the entry was persisted or shipped.
	Verify *VerifyReport `json:"verify,omitempty"`
	// Analyze is the memoized static-analysis report, when one was
	// computed before the entry was persisted or shipped.
	Analyze *AnalyzeReport `json:"analyze,omitempty"`
}

// PeerFetchRequest asks a fleet member for its stored copy of a
// fingerprint.  The receiver consults only its memory cache and local
// store — it never compiles and never forwards the request — so a fetch
// is one bounded hop.
type PeerFetchRequest struct {
	Fingerprint string `json:"fingerprint"`
}

// PeerFetchResponse is /v1/peer/fetch's result.  Found=false is a
// normal miss, not an error.
type PeerFetchResponse struct {
	Found bool              `json:"found"`
	Entry *ProgramEntryJSON `json:"entry,omitempty"`
}

// CacheStats is the program cache's counter snapshot.
type CacheStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// InflightCoalesced counts requests that joined an identical
	// in-flight compile instead of starting their own (singleflight).
	InflightCoalesced int64 `json:"inflight_coalesced"`
	// BackingHits counts misses served from the durable tier (local
	// store or a peer) instead of a fresh compile.
	BackingHits int64 `json:"backing_hits,omitempty"`
	Evictions   int64 `json:"evictions"`
	Entries     int   `json:"entries"`
	SizeBytes   int64 `json:"size_bytes"`
	MaxBytes    int64 `json:"max_bytes"`
}

// ServerStats is the service's request-level counter snapshot.
type ServerStats struct {
	Requests int64 `json:"requests"`
	Active   int64 `json:"active"`
	Compiles int64 `json:"compiles"`
	Errors   int64 `json:"errors"`
	// Rejected counts 429s from queue backpressure; Timeouts counts
	// compiles aborted by the per-request deadline.
	Rejected   int64 `json:"rejected"`
	Timeouts   int64 `json:"timeouts"`
	Workers    int   `json:"workers"`
	QueueDepth int   `json:"queue_depth"`
	UptimeMS   int64 `json:"uptime_ms"`
}

// ArtifactCacheStats is the per-unit artifact store's counter snapshot:
// hits and misses count artifact lookups by environment fingerprint
// across incremental compiles; dirty counts artifacts recomputed because
// a procedure (or its callees, options or directives) changed.
type ArtifactCacheStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// BackingHits counts artifact misses thawed from the durable chunk
	// store instead of recomputed.
	BackingHits int64 `json:"backing_hits,omitempty"`
	Dirty       int64 `json:"dirty"`
	Evictions   int64 `json:"evictions"`
	Entries     int   `json:"entries"`
	SizeBytes   int64 `json:"size_bytes"`
	MaxBytes    int64 `json:"max_bytes"`
}

// StoreStats is the durable chunk store's counter snapshot plus the
// service's program-persistence counters over it, present in /v1/stats
// when the server was started with a store.
type StoreStats struct {
	Chunks       int   `json:"chunks"`
	Manifests    int   `json:"manifests"`
	LiveBytes    int64 `json:"live_bytes"`
	DeadBytes    int64 `json:"dead_bytes"`
	JournalBytes int64 `json:"journal_bytes"`
	MaxBytes     int64 `json:"max_bytes"`

	Hits           int64 `json:"hits"`
	Misses         int64 `json:"misses"`
	ChunkPuts      int64 `json:"chunk_puts"`
	DedupHits      int64 `json:"dedup_hits"`
	ManifestPuts   int64 `json:"manifest_puts"`
	Evictions      int64 `json:"evictions"`
	Compactions    int64 `json:"compactions"`
	TruncatedBytes int64 `json:"truncated_bytes,omitempty"`

	// ProgramHits/Misses/Writes count whole-program cache entries thawed
	// from, missed in, and persisted to this store.
	ProgramHits   int64 `json:"program_hits"`
	ProgramMisses int64 `json:"program_misses"`
	ProgramWrites int64 `json:"program_writes"`

	// TuneHits/Misses/Writes count tune leaderboards recalled from,
	// missed in, and persisted to this store (keyed by tune-request
	// fingerprint), so a restarted server answers repeat /v1/tune
	// requests from disk.
	TuneHits   int64 `json:"tune_hits,omitempty"`
	TuneMisses int64 `json:"tune_misses,omitempty"`
	TuneWrites int64 `json:"tune_writes,omitempty"`
}

// PeerStats is the fleet tier's counter snapshot, present in /v1/stats
// when the server was started with peers.  Hits/Misses/Errors count
// this replica's outbound fetches; Served counts entries this replica
// handed to other members.
type PeerStats struct {
	Self   int   `json:"self"`
	Peers  int   `json:"peers"`
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Errors int64 `json:"errors"`
	Served int64 `json:"served"`
}

// StatsResponse is /v1/stats.
type StatsResponse struct {
	Cache CacheStats `json:"cache"`
	// Artifacts is the per-unit artifact tier feeding warm recompiles,
	// reported next to the whole-program cache above it.
	Artifacts ArtifactCacheStats `json:"artifacts"`
	Server    ServerStats        `json:"server"`
	// Store and Peer are present when the durable store and the fleet
	// are configured, respectively.
	Store *StoreStats `json:"store,omitempty"`
	Peer  *PeerStats  `json:"peer,omitempty"`
}

// APIError is a non-2xx service response.
type APIError struct {
	StatusCode int    `json:"-"`
	Message    string `json:"error"`
}

func (e *APIError) Error() string {
	return fmt.Sprintf("dhpfd: HTTP %d: %s", e.StatusCode, e.Message)
}
