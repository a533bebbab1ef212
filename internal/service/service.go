// Package service is the dhpfd compile service: an HTTP/JSON server over
// the root dhpf API that turns the compiler into a served artifact.  It
// fronts every compilation with a content-addressed program cache
// (internal/cache) keyed by dhpf.Fingerprint, so identical requests —
// the dominant shape of configuration sweeps and ablation studies — hit
// a stored program or coalesce onto an identical in-flight compile, and
// bounds the work it accepts with a fixed worker pool plus a bounded
// queue (full queue ⇒ 429).  Per-request deadlines are enforced through
// context cancellation at pass boundaries (passes.RunCtx), so an
// abandoned compile stops between passes and never corrupts the cache.
//
// Endpoints (all JSON; wire types in the root package):
//
//	POST /v1/compile        report + per-rank node programs + pass stats
//	POST /v1/compile/batch  many compiles sharing one artifact store
//	POST /v1/explain        the cmd/dhpfc -explain table
//	POST /v1/run            execute on a named machine ("sp2" or "sp2:N")
//	POST /v1/verify         translation-validation report (the -lint surface)
//	POST /v1/tune           auto-tune distributions/granularity/ablations
//	GET  /v1/stats          cache + request counters
//	GET  /healthz           liveness
//
// Beneath the whole-program cache sits a per-procedure artifact store
// (dhpf.Incremental): a warm edit — same program, one procedure changed
// — misses the program cache but thaws the dependence graphs,
// communication plans and verification fragments of every unchanged
// procedure, re-analyzing only the edited ones.  /v1/stats reports the
// artifact tier's hit/miss/dirty counters alongside the program cache's.
//
// A tune request occupies one worker slot for its whole duration (its
// internal evaluation parallelism is capped at the pool size), so tuning
// shares the same 429 backpressure and deadline regime as compiles.
//
// With Config.Store both caches gain a durable tier (internal/store):
// compiled programs and per-procedure artifacts are written through to
// an append-only chunk journal, so a restarted server serves previously
// seen fingerprints byte-identically with zero pass work.  With
// Config.Peers the server joins a static fleet: fingerprints are
// sharded over the members by consistent hashing, and a replica that
// misses locally asks the owning peer (POST /v1/peer/fetch) for its
// stored entry before compiling cold.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dhpf"
	"dhpf/internal/cache"
	"dhpf/internal/passes"
	"dhpf/internal/store"
)

// ErrBusy is returned (as HTTP 429) when the compile queue is full.
var ErrBusy = errors.New("service: compile queue full")

// Config sizes the service.  Zero fields take the defaults.
type Config struct {
	// Workers bounds concurrent compiles (default 4).  Cache hits and
	// coalesced requests never occupy a worker.
	Workers int
	// QueueDepth bounds compiles waiting for a worker (default 64);
	// beyond Workers+QueueDepth new compiles are rejected with 429.
	QueueDepth int
	// CacheBytes is the program cache budget (default 256 MiB),
	// charged per entry as source + rendered-report size.
	CacheBytes int64
	// ArtifactBytes is the per-procedure artifact store budget backing
	// warm-edit recompiles (default 64 MiB).
	ArtifactBytes int64
	// RequestTimeout bounds each request's compile+render time
	// (default 60s).  Hitting it aborts the compile at the next pass
	// boundary and returns 504.
	RequestTimeout time.Duration
	// Logger receives one structured line per request (nil = silent).
	Logger *slog.Logger
	// Store, when set, is the durable chunk store backing both caches:
	// compiled programs and frozen artifacts survive restarts.  The
	// server does not close it.
	Store *store.Store
	// Peers is the fleet membership as base URLs (including this
	// server's own), identical and identically ordered on every member;
	// Self is this server's index in it.  With fewer than two peers the
	// fleet tier is off.
	Peers []string
	Self  int
	// PeerTimeout bounds one peer-fetch round trip (default 5s); a slow
	// or dead peer costs at most this before the local cold compile.
	PeerTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 256 << 20
	}
	if c.ArtifactBytes <= 0 {
		c.ArtifactBytes = 64 << 20
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = 5 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// testHooks lets tests deterministically hold a compile inside a worker
// slot (nil in production).
var testPreCompile func(ctx context.Context)

// program is one cache entry: the compiled program plus its rendered
// artifacts.  The report is rendered once at insert (rendering re-runs
// transfer planning per communication event, which would otherwise
// dominate warm-hit latency); node programs are rendered per rank on
// first request and memoized.
//
// An entry thawed from the durable store or fetched from a fleet peer
// has prog == nil: every node program is pre-rendered in nodes and the
// pass records live in stats, so compile/explain/verify requests are
// served without a live program.  /v1/run (and a first /v1/verify on an
// entry persisted before its report was computed) revive the entry with
// one artifact-warm compile — see Server.liveProgram.
type program struct {
	report string
	ranks  int

	mu         sync.Mutex
	prog       *dhpf.Program
	nodes      map[int]string
	stats      []dhpf.PassStat // cache-hit form; only for thawed entries
	verifyRep  *dhpf.VerifyReport
	analyzeRep *dhpf.AnalyzeReport
}

func newProgram(p *dhpf.Program) *program {
	return &program{prog: p, report: p.Report(), ranks: p.Ranks(), nodes: map[int]string{}}
}

// live returns the entry's compiled program, or nil for a thawed entry
// that has not been revived.
func (e *program) live() *dhpf.Program {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.prog
}

func (e *program) nodeProgram(rank int) string {
	e.mu.Lock()
	defer e.mu.Unlock()
	if s, ok := e.nodes[rank]; ok {
		return s
	}
	if e.prog == nil {
		// Thawed entries carry every rank; an absent one means the rank
		// is out of range, which compileOne rejects before asking.
		return ""
	}
	s := e.prog.NodeProgram(rank)
	e.nodes[rank] = s
	return s
}

// verify memoizes the translation-validation report: the proof is pure
// over the compiled analyses, so repeated /v1/verify requests on one
// fingerprint pay the set algebra once.  Callers must revive a thawed
// entry first when no report is memoized (Server.liveProgram).
func (e *program) verify() (*dhpf.VerifyReport, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.verifyRep != nil {
		return e.verifyRep, nil
	}
	if e.prog == nil {
		return nil, errors.New("service: verify on a thawed entry without a live program")
	}
	rep, err := e.prog.Verify()
	if err != nil {
		return nil, err
	}
	e.verifyRep = &rep
	return e.verifyRep, nil
}

// analyze memoizes the static-analysis report: summaries, dataflow
// diagnostics and the cost oracle's prediction are pure over the
// compiled facts, so repeated /v1/analyze requests on one fingerprint
// pay the set algebra once.  Callers must revive a thawed entry first
// when no report is memoized (Server.liveProgram).
func (e *program) analyze() (*dhpf.AnalyzeReport, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.analyzeRep != nil {
		return e.analyzeRep, nil
	}
	if e.prog == nil {
		return nil, errors.New("service: analyze on a thawed entry without a live program")
	}
	rep, err := e.prog.Analyze()
	if err != nil {
		return nil, err
	}
	e.analyzeRep = &rep
	return e.analyzeRep, nil
}

// Server is one compile service instance.
type Server struct {
	cfg   Config
	cache *cache.Cache[*program]
	// inc compiles through the per-procedure artifact store: program-cache
	// misses whose procedures are mostly unchanged (warm edits) reuse the
	// clean procedures' frozen analyses.
	inc *dhpf.Incremental
	// tuner serves /v1/tune; its memo caches live as long as the server,
	// so repeated tune requests reuse full evaluations.
	tuner *dhpf.Tuner
	// tokens is the worker pool: holding a token = compiling.
	tokens chan struct{}
	// pending counts compiles holding or waiting for a token; above
	// Workers+QueueDepth new compiles are rejected.
	pending atomic.Int64
	start   time.Time
	// durable is the program cache's persistent tier (local store and/or
	// fleet peers); nil when neither is configured.
	durable *durable

	requests   atomic.Int64
	active     atomic.Int64
	compiles   atomic.Int64
	errCount   atomic.Int64
	rejected   atomic.Int64
	timeouts   atomic.Int64
	peerServed atomic.Int64
}

// New returns a server with the given configuration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	peers := cfg.Peers
	if len(peers) > 1 && (cfg.Self < 0 || cfg.Self >= len(peers)) {
		cfg.Logger.Warn("service: Self is not an index into Peers; fleet tier disabled",
			"self", cfg.Self, "peers", len(peers))
		peers = nil
	}
	s := &Server{
		cfg:    cfg,
		cache:  cache.New[*program](cfg.CacheBytes),
		inc:    dhpf.NewIncremental(cfg.ArtifactBytes),
		tuner:  dhpf.NewTuner(),
		tokens: make(chan struct{}, cfg.Workers),
		start:  time.Now(),
	}
	if cfg.Store != nil {
		// The artifact tier persists too, so even programs evicted from
		// the store (or never seen here) recompile artifact-warm.
		s.inc.Persist(cfg.Store)
	}
	if cfg.Store != nil || len(peers) > 1 {
		s.durable = &durable{
			st:      cfg.Store,
			peers:   peers,
			self:    cfg.Self,
			client:  &http.Client{Timeout: cfg.PeerTimeout},
			timeout: cfg.PeerTimeout,
		}
		if len(peers) > 1 {
			s.durable.ring = newHashRing(peers)
		}
		s.cache.SetBacking(s.durable)
	}
	return s
}

// Handler returns the service's HTTP handler (routing + request logs).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/compile", s.handleCompile)
	mux.HandleFunc("POST /v1/compile/batch", s.handleCompileBatch)
	mux.HandleFunc("POST /v1/explain", s.handleExplain)
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/verify", s.handleVerify)
	mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	mux.HandleFunc("POST /v1/tune", s.handleTune)
	mux.HandleFunc("POST /v1/peer/fetch", s.handlePeerFetch)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return s.logged(mux)
}

// logged wraps the mux with counters and one structured log line per
// request.  A handler that panics answers 500 naming the path, counted
// in Errors, instead of net/http dropping the connection; one that
// panics after its response began can only be cut off.
func (s *Server) logged(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		s.active.Add(1)
		defer s.active.Add(-1)
		lw := &loggingWriter{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		defer func() {
			if p := recover(); p != nil {
				s.cfg.Logger.Error("handler panic", "path", r.URL.Path, "panic", fmt.Sprint(p))
				if lw.wrote {
					s.errCount.Add(1)
					panic(http.ErrAbortHandler)
				}
				s.fail(lw, http.StatusInternalServerError, fmt.Errorf("%s: handler panicked: %v", r.URL.Path, p))
			}
			s.cfg.Logger.Info("request",
				"method", r.Method, "path", r.URL.Path,
				"status", lw.status, "bytes", lw.bytes,
				"dur", time.Since(t0).Round(time.Microsecond).String())
		}()
		next.ServeHTTP(lw, r)
	})
}

type loggingWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
	wrote  bool // the response has begun
}

func (w *loggingWriter) WriteHeader(code int) {
	w.status, w.wrote = code, true
	w.ResponseWriter.WriteHeader(code)
}

func (w *loggingWriter) Write(p []byte) (int, error) {
	w.wrote = true
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Stats snapshots the cache and request counters.
func (s *Server) Stats() dhpf.StatsResponse {
	cs := s.cache.Stats()
	as := s.inc.ArtifactStats()
	resp := dhpf.StatsResponse{
		Artifacts: dhpf.ArtifactCacheStats{
			Hits:        as.Hits,
			Misses:      as.Misses,
			BackingHits: as.BackingHits,
			Dirty:       as.Dirty,
			Evictions:   as.Evictions,
			Entries:     as.Entries,
			SizeBytes:   as.SizeBytes,
			MaxBytes:    as.MaxBytes,
		},
		Cache: dhpf.CacheStats{
			Hits:              cs.Hits,
			Misses:            cs.Misses,
			InflightCoalesced: cs.InflightCoalesced,
			BackingHits:       cs.BackingHits,
			Evictions:         cs.Evictions,
			Entries:           cs.Entries,
			SizeBytes:         cs.SizeBytes,
			MaxBytes:          cs.MaxBytes,
		},
		Server: dhpf.ServerStats{
			Requests:   s.requests.Load(),
			Active:     s.active.Load(),
			Compiles:   s.compiles.Load(),
			Errors:     s.errCount.Load(),
			Rejected:   s.rejected.Load(),
			Timeouts:   s.timeouts.Load(),
			Workers:    s.cfg.Workers,
			QueueDepth: s.cfg.QueueDepth,
			UptimeMS:   time.Since(s.start).Milliseconds(),
		},
	}
	if s.durable != nil {
		resp.Store = s.durable.storeStats()
		if s.durable.ring != nil {
			resp.Peer = &dhpf.PeerStats{
				Self:   s.durable.self,
				Peers:  len(s.durable.peers),
				Hits:   s.durable.peerHits.Load(),
				Misses: s.durable.peerMisses.Load(),
				Errors: s.durable.peerErrors.Load(),
				Served: s.peerServed.Load(),
			}
		}
	}
	return resp
}

// withWorker runs fn inside one worker slot, applying the queue's
// backpressure: above Workers+QueueDepth pending holders it rejects
// with ErrBusy, and a context cancelled while queued returns its error.
// Shared by compiles, tune searches, and thawed-entry revivals.
func (s *Server) withWorker(ctx context.Context, fn func(ctx context.Context) error) error {
	if n := s.pending.Add(1); n > int64(s.cfg.Workers+s.cfg.QueueDepth) {
		s.pending.Add(-1)
		return ErrBusy
	}
	defer s.pending.Add(-1)
	select {
	case s.tokens <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-s.tokens }()
	return fn(ctx)
}

// compile resolves a request through the cache: hit, coalesce onto an
// identical in-flight compile, thaw from the durable tier (local store,
// then the fingerprint's owning fleet peer), or occupy a worker slot
// and compile.
func (s *Server) compile(ctx context.Context, source string, params map[string]int, opt dhpf.Options) (key string, ent *program, cached bool, err error) {
	key = dhpf.Fingerprint(source, params, opt)
	ent, cached, err = s.cache.GetOrCompute(ctx, key, func(fctx context.Context) (*program, int64, error) {
		var e *program
		var size int64
		err := s.withWorker(fctx, func(wctx context.Context) error {
			if testPreCompile != nil {
				testPreCompile(wctx)
			}
			s.compiles.Add(1)
			// Compile through the artifact store: a warm edit (program-cache
			// miss, most procedures unchanged) thaws the clean procedures'
			// analyses and re-runs only the dirty ones.  Output is
			// byte-identical to a cold compile.
			p, _, err := s.inc.CompileCtx(wctx, source, params, opt)
			if err != nil {
				return err
			}
			e = newProgram(p)
			// Charge roughly what the entry pins in memory: the source and
			// the rendered report (the IR and analyses scale with both).
			size = int64(len(source) + len(e.report) + 1024)
			return nil
		})
		return e, size, err
	})
	return key, ent, cached, err
}

// liveProgram revives a thawed cache entry: endpoints that need the
// compiled program itself (/v1/run, a first /v1/verify) recompile it
// through the artifact store — warm, so with zero dirty procedures —
// inside a worker slot, and memoize it on the entry.  The output is
// byte-identical to the persisted rendering by the incremental
// compiler's contract.
func (s *Server) liveProgram(ctx context.Context, ent *program, source string, params map[string]int, opt dhpf.Options) (*dhpf.Program, error) {
	if p := ent.live(); p != nil {
		return p, nil
	}
	var p *dhpf.Program
	err := s.withWorker(ctx, func(wctx context.Context) error {
		s.compiles.Add(1)
		var err error
		p, _, err = s.inc.CompileCtx(wctx, source, params, opt)
		return err
	})
	if err != nil {
		return nil, err
	}
	ent.mu.Lock()
	if ent.prog == nil {
		ent.prog = p
	}
	p = ent.prog
	ent.mu.Unlock()
	return p, nil
}

// requestCtx applies the per-request compile deadline.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
}

// passStats renders an entry's pass records for the wire.  A program-
// cache hit did no pass work — the records describe the compile that
// populated the entry, not this request — so a hit reports each pass as
// cached with zero wall time instead of replaying stale timings.  A
// thawed entry (no live program) is by construction a hit and carries
// its records in cache-hit form already.
func passStats(ent *program, cached bool) []dhpf.PassStatJSON {
	prog := ent.live()
	if prog == nil {
		ent.mu.Lock()
		stats := ent.stats
		ent.mu.Unlock()
		return dhpf.CachedPassStatsJSON(stats)
	}
	if cached {
		return dhpf.CachedPassStatsJSON(prog.PassStats())
	}
	return dhpf.PassStatsJSON(prog.PassStats())
}

// compileOne resolves one compile request end-to-end (cache, node
// program rendering) and builds its wire response.  Shared by the single
// and batch compile handlers.
func (s *Server) compileOne(ctx context.Context, req dhpf.CompileRequest) (*dhpf.CompileResponse, error) {
	opt, err := req.Options.Resolve()
	if err != nil {
		return nil, err
	}
	key, ent, cached, err := s.compile(ctx, req.Source, req.Params, opt)
	if err != nil {
		return nil, err
	}
	nranks := ent.ranks
	ranks := req.Ranks
	if ranks == nil {
		for rk := 0; rk < nranks; rk++ {
			ranks = append(ranks, rk)
		}
	}
	progs := make(map[int]string, len(ranks))
	for _, rk := range ranks {
		if rk < 0 || rk >= nranks {
			return nil, fmt.Errorf("rank %d out of range (program has %d ranks)", rk, nranks)
		}
		progs[rk] = ent.nodeProgram(rk)
	}
	return &dhpf.CompileResponse{
		Fingerprint:  key,
		Ranks:        nranks,
		Report:       ent.report,
		NodePrograms: progs,
		PassStats:    passStats(ent, cached),
		Cached:       cached,
	}, nil
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	var req dhpf.CompileRequest
	if !s.decode(w, r, &req) {
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	resp, err := s.compileOne(ctx, req)
	if err != nil {
		s.failCompile(w, err)
		return
	}
	s.ok(w, *resp)
}

// handleCompileBatch compiles a slice of requests in order, sharing the
// program cache and the per-procedure artifact store across members: in
// a batch of near-identical programs (a parameter sweep, a set of edits
// to one code base) every member after the first thaws the procedures it
// shares with earlier members.  Per-member failures are reported in
// place, so one bad program does not fail its siblings.
func (s *Server) handleCompileBatch(w http.ResponseWriter, r *http.Request) {
	var req dhpf.BatchCompileRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Requests) == 0 {
		s.fail(w, http.StatusUnprocessableEntity, errors.New("batch has no requests"))
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	results := make([]dhpf.BatchCompileResult, len(req.Requests))
	for i, cr := range req.Requests {
		resp, err := s.compileOne(ctx, cr)
		if err != nil {
			results[i].Error = err.Error()
			s.errCount.Add(1)
			if errors.Is(err, ErrBusy) {
				s.rejected.Add(1)
			}
			continue
		}
		results[i].Response = resp
	}
	s.ok(w, dhpf.BatchCompileResponse{Results: results})
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req dhpf.CompileRequest
	if !s.decode(w, r, &req) {
		return
	}
	opt, err := req.Options.Resolve()
	if err != nil {
		s.fail(w, http.StatusUnprocessableEntity, err)
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	key, ent, cached, err := s.compile(ctx, req.Source, req.Params, opt)
	if err != nil {
		s.failCompile(w, err)
		return
	}
	var stats []dhpf.PassStat
	if cached {
		// A cache hit did no pass work: label every pass cached (and
		// render the table from the relabelled records) rather than
		// replaying the original compile's timings as if they were new.
		// cachedStatsOf also covers thawed entries, whose records are
		// persisted in exactly this form.
		stats = cachedStatsOf(ent)
	} else {
		stats = ent.live().PassStats()
	}
	s.ok(w, dhpf.ExplainResponse{
		Fingerprint: key,
		Table:       dhpf.StatsTable(stats),
		PassStats:   dhpf.PassStatsJSON(stats),
		Cached:      cached,
	})
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req dhpf.RunRequest
	if !s.decode(w, r, &req) {
		return
	}
	opt, err := req.Options.Resolve()
	if err != nil {
		s.fail(w, http.StatusUnprocessableEntity, err)
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	key, ent, cached, err := s.compile(ctx, req.Source, req.Params, opt)
	if err != nil {
		s.failCompile(w, err)
		return
	}
	// Execution needs the live program; a thawed entry revives it here
	// (artifact-warm, zero dirty procedures).
	prog, err := s.liveProgram(ctx, ent, req.Source, req.Params, opt)
	if err != nil {
		s.failCompile(w, err)
		return
	}
	cfg, err := ParseMachine(req.Machine, ent.ranks)
	if err != nil {
		s.fail(w, http.StatusUnprocessableEntity, err)
		return
	}
	res, err := prog.RunEngine(cfg, req.Engine)
	if err != nil {
		s.fail(w, http.StatusUnprocessableEntity, err)
		return
	}
	ks := res.Kernels()
	resp := dhpf.RunResponse{
		Fingerprint: key,
		Ranks:       ent.ranks,
		Seconds:     res.Seconds(),
		Messages:    res.Messages(),
		Bytes:       res.Bytes(),
		RankSeconds: res.RankSeconds(),
		Cached:      cached,

		KernelCalls:     ks.Calls,
		KernelBails:     ks.BailsByReason(),
		NativeFlopShare: ks.NativeFlopShare(),
	}
	if b, err := passes.ParseBackend(opt.Backend); err == nil && b != passes.BackendMP {
		resp.Backend = b
		resp.Pulls = res.Pulls()
		resp.PulledBytes = res.PulledBytes()
	}
	if len(req.Arrays) > 0 {
		resp.Arrays = make(map[string]dhpf.ArrayJSON, len(req.Arrays))
		for _, name := range req.Arrays {
			data, lo, hi, err := res.Array(name)
			if err != nil {
				s.fail(w, http.StatusUnprocessableEntity, err)
				return
			}
			resp.Arrays[name] = dhpf.ArrayJSON{Data: data, Lo: lo, Hi: hi}
		}
	}
	s.ok(w, resp)
}

// handleVerify compiles (through the cache) and returns the translation
// validator's report.  The in-pipeline verify pass is disabled for this
// compile — a default compile hard-fails on safety errors, but the lint
// surface exists to *return* the diagnostics, so an unsafe program must
// still reach the verifier.  The report is memoized on the cache entry.
func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	var req dhpf.VerifyRequest
	if !s.decode(w, r, &req) {
		return
	}
	opt, err := req.Options.Resolve()
	if err != nil {
		s.fail(w, http.StatusUnprocessableEntity, err)
		return
	}
	opt.Disable = append(opt.Disable, dhpf.PassVerify)
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	key, ent, cached, err := s.compile(ctx, req.Source, req.Params, opt)
	if err != nil {
		s.failCompile(w, err)
		return
	}
	ent.mu.Lock()
	hasRep := ent.verifyRep != nil
	ent.mu.Unlock()
	if !hasRep {
		// No memoized report: the proof runs over the live analyses, so a
		// thawed entry (persisted before anyone verified it) revives first.
		if _, err := s.liveProgram(ctx, ent, req.Source, req.Params, opt); err != nil {
			s.failCompile(w, err)
			return
		}
	}
	rep, err := ent.verify()
	if err != nil {
		s.fail(w, http.StatusUnprocessableEntity, err)
		return
	}
	if !hasRep && s.durable != nil {
		// Persist the freshly proven report next to the program entry:
		// unchanged chunks dedup, the manifest gains a verify ref, and
		// the report survives restarts with the rest of the entry.
		s.durable.Store(key, ent, 0)
	}
	s.ok(w, dhpf.VerifyResponse{Fingerprint: key, VerifyReport: *rep, Cached: cached})
}

// handleAnalyze compiles (through the cache) and returns the static
// analyzer's report: symbolic loop summaries, dataflow diagnostics and
// the cost oracle's predicted counters.  Unlike verify, the in-pipeline
// analyze pass stays enabled — it never fails a compile — so the request
// shares its fingerprint (and therefore its cache entry) with a plain
// /v1/compile of the same triple.  The report is memoized on the entry
// and persisted alongside it.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req dhpf.AnalyzeRequest
	if !s.decode(w, r, &req) {
		return
	}
	opt, err := req.Options.Resolve()
	if err != nil {
		s.fail(w, http.StatusUnprocessableEntity, err)
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	key, ent, cached, err := s.compile(ctx, req.Source, req.Params, opt)
	if err != nil {
		s.failCompile(w, err)
		return
	}
	ent.mu.Lock()
	hasRep := ent.analyzeRep != nil
	ent.mu.Unlock()
	if !hasRep {
		// No memoized report: the analysis runs over the live facts, so a
		// thawed entry (persisted before anyone analyzed it) revives first.
		if _, err := s.liveProgram(ctx, ent, req.Source, req.Params, opt); err != nil {
			s.failCompile(w, err)
			return
		}
	}
	rep, err := ent.analyze()
	if err != nil {
		s.fail(w, http.StatusUnprocessableEntity, err)
		return
	}
	if !hasRep && s.durable != nil {
		// Persist the fresh report next to the program entry: unchanged
		// chunks dedup, the manifest gains an analyze ref, and the report
		// survives restarts with the rest of the entry.
		s.durable.Store(key, ent, 0)
	}
	s.ok(w, dhpf.AnalyzeResponse{Fingerprint: key, AnalyzeReport: *rep, Cached: cached})
}

// handleTune runs an auto-tuning search inside one worker slot: the
// same pending-count backpressure (429) and per-request deadline as a
// compile, with the tuner's internal parallelism capped at the pool
// size.  With a durable store, completed leaderboards are persisted by
// tune-request fingerprint, so a restarted server answers a repeat
// request from disk without re-running the search.
func (s *Server) handleTune(w http.ResponseWriter, r *http.Request) {
	var req dhpf.TuneRequest
	if !s.decode(w, r, &req) {
		return
	}
	// The Workers clamp happens before fingerprinting: Workers shapes
	// the full tier's waves (and therefore pruning), so the key must
	// name the options as they will actually run.
	if req.Workers <= 0 || req.Workers > s.cfg.Workers {
		req.Workers = s.cfg.Workers
	}
	key := tuneFingerprint(req.Source, req.TuneOptions)
	if s.durable != nil {
		if res, ok := s.durable.loadTune(key); ok {
			res.Trail = append(res.Trail, "leaderboard recalled from durable store")
			s.ok(w, res)
			return
		}
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	var res *dhpf.TuneResult
	err := s.withWorker(ctx, func(wctx context.Context) error {
		var err error
		res, err = s.tuner.Tune(wctx, req.Source, req.TuneOptions)
		return err
	})
	if err != nil {
		s.failCompile(w, err)
		return
	}
	if s.durable != nil {
		s.durable.saveTune(key, res)
	}
	s.ok(w, res)
}

// tuneFingerprint is the durable-store key of one tune request: a hash
// of the source plus the effective options.  The search is
// deterministic for a fixed spec (internal/tune's contract), so equal
// fingerprints have equal leaderboards and a recalled result is exactly
// what a re-run would produce.
func tuneFingerprint(source string, opt dhpf.TuneOptions) string {
	js, _ := json.Marshal(opt)
	sum := sha256.Sum256([]byte(cache.Key("tune-v2", source, string(js))))
	return "tune:" + hex.EncodeToString(sum[:])
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.ok(w, s.Stats())
}

// ParseMachine resolves a machine name: "" or "sp2" is the paper's SP2
// sized to the program, "sp2:N" requires the program to want N ranks.
func ParseMachine(name string, ranks int) (dhpf.MachineConfig, error) {
	base, count, hasCount := strings.Cut(name, ":")
	if base == "" {
		base = "sp2"
	}
	if base != "sp2" {
		return dhpf.MachineConfig{}, fmt.Errorf("unknown machine %q (known: sp2, sp2:N)", name)
	}
	if hasCount {
		n, err := strconv.Atoi(count)
		if err != nil || n <= 0 {
			return dhpf.MachineConfig{}, fmt.Errorf("bad machine rank count in %q", name)
		}
		if n != ranks {
			return dhpf.MachineConfig{}, fmt.Errorf("machine %q has %d ranks but the program wants %d", name, n, ranks)
		}
	}
	return dhpf.SP2Machine(ranks), nil
}

// --- response plumbing -------------------------------------------------------

func (s *Server) decode(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

// failCompile maps a compile-path error to its status: queue pressure,
// deadline, client cancellation, a compiler panic, or a compile
// diagnostic.
func (s *Server) failCompile(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, cache.ErrPanic):
		s.fail(w, http.StatusInternalServerError, err)
	case errors.Is(err, ErrBusy):
		s.rejected.Add(1)
		s.fail(w, http.StatusTooManyRequests, err)
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Add(1)
		s.fail(w, http.StatusGatewayTimeout, fmt.Errorf("compile timed out: %w", err))
	case errors.Is(err, context.Canceled):
		s.fail(w, http.StatusRequestTimeout, fmt.Errorf("request cancelled: %w", err))
	default:
		s.fail(w, http.StatusUnprocessableEntity, err)
	}
}

func (s *Server) fail(w http.ResponseWriter, status int, err error) {
	s.errCount.Add(1)
	writeJSON(w, status, dhpf.APIError{Message: err.Error()})
}

func (s *Server) ok(w http.ResponseWriter, v any) { writeJSON(w, http.StatusOK, v) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}
