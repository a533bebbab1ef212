package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dhpf"
	"dhpf/internal/cache"
	"dhpf/internal/nas"
	"dhpf/internal/passes"
	"dhpf/internal/service"
	"dhpf/internal/spmd"
	"dhpf/internal/store"
	"dhpf/internal/store/codec"
)

const (
	serveClients       = 2  // closed-loop clients, each with its own edit stream
	restartEvery       = 20 // sessions per client between daemon restarts
	requestsPerSession = 8
	// calibrateEvery is how many sessions per client run between two
	// runs of the reference kernel: the clients join that often.
	calibrateEvery = 5
	// storeBytes is small enough that the run's edits reach eviction
	// and compaction, large enough that the hot entries, touched after
	// every restart, are never the least recently used.
	storeBytes = 32 << 20
)

// countingTransport counts the response-body bytes one client reads.
type countingTransport struct {
	next  *http.Transport
	bytes atomic.Int64
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countedBody{ReadCloser: resp.Body, n: &c.bytes}
	return resp, nil
}

type countedBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// serveClient is one closed-loop client.
type serveClient struct {
	api   *dhpf.Client
	wire  *countingTransport
	edits *editStream
}

// serveRefs are the responses every session must reproduce, each
// checked in set-up against a reference outside the service.
type serveRefs struct {
	compile *dhpf.CompileResponse // hot sp16, all ranks
	bt      *dhpf.CompileResponse // hot bt12, all ranks
	explain *dhpf.ExplainResponse
	verify  *dhpf.VerifyResponse
	analyze *dhpf.AnalyzeResponse
	run     *dhpf.RunResponse // hot lu16 on the codegen engine, array u
	// An edit of the modular SP changes one constant the report does
	// not print, at fixed width: all edits have one report and one text
	// size.
	editReport string
	editBytes  int
}

// serveCounters are the /v1/stats counters summed over the daemon's
// generations (a restart zeroes the live ones).
type serveCounters struct {
	cacheHits, cacheMisses, cacheBacking, coalesced int64
	artHits, artDirty, artBacking                   int64
	compiles, rejected                              int64
	chunkPuts, dedupHits, evictions, compactions    int64
	journalBytes                                    int64
}

// serveInstance is a set-up serve-session workload: a daemon behind a
// loopback listener over a store in a scratch directory.
type serveInstance struct {
	dir, path string
	st        *store.Store
	srv       *service.Server
	ts        *httptest.Server
	clients   []*serveClient

	hot, hotBT   dhpf.CompileRequest
	hotRun       dhpf.RunRequest
	spmod        string
	refs         serveRefs
	handTime     float64
	sinceRestart int
	editsSince   int64              // edit compiles since the daemon started
	primed       dhpf.StatsResponse // the first daemon's counters after priming
	opSeq        atomic.Int64       // numbers the sessions, across both clients
	sessions     atomic.Int64       // sessions that passed every check
	sessionBytes atomic.Int64       // response bodies read inside sessions

	gone      serveCounters  // generations already shut down
	traceBase *serveCounters // totals when the traced loop began
	restarts  []float64      // ms: store.Open + service.New + first hot response
	replays   []float64      // ms: the store.Open part
}

func (s *serveInstance) config() service.Config {
	return service.Config{Workers: 2, Store: s.st}
}

func setupServe(e env) (instance, error) {
	dir, err := os.MkdirTemp(e.tmp, "serve-")
	if err != nil {
		return nil, err
	}
	s := &serveInstance{dir: dir, path: filepath.Join(dir, "dhpfd.store")}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	sp, err := corpusEntry("sp16")
	if err != nil {
		return nil, err
	}
	bt, err := corpusEntry("bt12")
	if err != nil {
		return nil, err
	}
	lu, err := corpusEntry("lu16")
	if err != nil {
		return nil, err
	}
	s.hot = dhpf.CompileRequest{Source: sp.Source}
	s.hotBT = dhpf.CompileRequest{Source: bt.Source}
	s.hotRun = dhpf.RunRequest{Source: lu.Source, Engine: "codegen", Arrays: []string{"u"}}
	s.spmod = nas.SPModSource(32, 2, 2, 2)

	if s.st, err = store.Open(s.path, store.Options{MaxBytes: storeBytes}); err != nil {
		return nil, err
	}
	s.srv = service.New(s.config())
	s.ts = httptest.NewServer(s.srv.Handler())
	for c := 0; c < serveClients; c++ {
		wire := &countingTransport{next: http.DefaultTransport.(*http.Transport).Clone()}
		api := dhpf.NewClient(s.ts.URL)
		api.HTTPClient = &http.Client{Transport: wire}
		s.clients = append(s.clients, &serveClient{api: api, wire: wire, edits: newEditStream(e.seed, c, serveClients)})
	}
	e.clock.lap()
	if err := s.prime(); err != nil {
		return nil, err
	}
	ok = true
	return s, nil
}

// prime makes every hot request hot, checks each response against a
// reference from outside the service, and keeps it for the sessions to
// compare with.
func (s *serveInstance) prime() error {
	ctx := context.Background()
	luSource := s.hotRun.Source
	api := s.clients[0].api
	// First pass fills the caches; the second pass's responses are the
	// steady-state (cached) form the sessions see.
	for pass := 0; pass < 2; pass++ {
		var err error
		if s.refs.compile, err = api.Compile(ctx, s.hot); err != nil {
			return err
		}
		if s.refs.bt, err = api.Compile(ctx, s.hotBT); err != nil {
			return err
		}
		if s.refs.explain, err = api.Explain(ctx, s.hot); err != nil {
			return err
		}
		if s.refs.verify, err = api.Verify(ctx, dhpf.VerifyRequest{Source: s.hot.Source}); err != nil {
			return err
		}
		if s.refs.analyze, err = api.Analyze(ctx, dhpf.AnalyzeRequest{Source: s.hot.Source}); err != nil {
			return err
		}
		if s.refs.run, err = api.Run(ctx, s.hotRun); err != nil {
			return err
		}
	}
	for _, hot := range []struct {
		req  dhpf.CompileRequest
		resp *dhpf.CompileResponse
	}{{s.hot, s.refs.compile}, {s.hotBT, s.refs.bt}} {
		lib, err := dhpf.Compile(hot.req.Source, nil, dhpf.DefaultOptions())
		if err != nil {
			return err
		}
		if hot.resp.Report != lib.Report() || len(hot.resp.NodePrograms) != lib.Ranks() {
			return fmt.Errorf("service compile differs from the library's")
		}
		for r := 0; r < lib.Ranks(); r++ {
			if hot.resp.NodePrograms[r] != lib.NodeProgram(r) {
				return fmt.Errorf("service node program %d differs from the library's", r)
			}
		}
	}
	if !s.refs.verify.Clean || !s.refs.analyze.Clean {
		return fmt.Errorf("hot program is not verifier- and analyzer-clean")
	}
	ser, err := serialRun(luSource, nil)
	if err != nil {
		return err
	}
	wantU, _, _, err := ser.Array("u")
	if err != nil {
		return err
	}
	if e := maxRelErr(s.refs.run.Arrays["u"].Data, wantU); e > tolerance {
		return fmt.Errorf("/v1/run array u differs from the serial run: max rel err %g", e)
	}
	direct, err := spmd.CompileSource(luSource, nil, spmd.DefaultOptions())
	if err != nil {
		return err
	}
	res, err := direct.ExecuteEngine(machine(), spmd.EngineInterp)
	if err != nil {
		return err
	}
	if math.Float64bits(res.Machine.Time) != math.Float64bits(s.refs.run.Seconds) ||
		res.Machine.TotalMessages() != s.refs.run.Messages || res.Machine.TotalBytes() != s.refs.run.Bytes {
		return fmt.Errorf("/v1/run counters differ from the interpreter's")
	}
	handRes, _, err := handLU(16, 1)()
	if err != nil {
		return err
	}
	s.handTime = handRes.Time

	// The unedited modular SP warms the artifact tier, so every edit
	// finds all but its own procedure there.  What an edit must return
	// comes from the library's cold compile of an edited source.
	if _, err := api.Compile(ctx, dhpf.CompileRequest{Source: s.spmod}); err != nil {
		return err
	}
	src, err := edit(s.spmod, "0.1000001")
	if err != nil {
		return err
	}
	lib, err := dhpf.Compile(src, nil, dhpf.DefaultOptions())
	if err != nil {
		return err
	}
	s.primed = s.srv.Stats()
	s.refs.editReport = lib.Report()
	s.refs.editBytes = len(s.refs.editReport)
	for r := 0; r < lib.Ranks(); r++ {
		s.refs.editBytes += len(lib.NodeProgram(r))
	}
	return nil
}

func textBytes(r *dhpf.CompileResponse) int {
	n := len(r.Report)
	for _, p := range r.NodePrograms {
		n += len(p)
	}
	return n
}

// sameCompile requires got to carry exactly want's generated text, and
// to have come from a cache when mustHit.
func sameCompile(what string, got, want *dhpf.CompileResponse, mustHit bool) error {
	switch {
	case mustHit && !got.Cached:
		return fmt.Errorf("%s: compiled, want a cache hit", what)
	case got.Fingerprint != want.Fingerprint || got.Ranks != want.Ranks || got.Report != want.Report ||
		len(got.NodePrograms) != len(want.NodePrograms):
		return fmt.Errorf("%s: response differs from the reference", what)
	}
	for r, text := range want.NodePrograms {
		if got.NodePrograms[r] != text {
			return fmt.Errorf("%s: node program %d differs from the reference", what, r)
		}
	}
	return nil
}

// session is one op: the eight requests of an edit-compile-run loop.
func (s *serveInstance) session(cl *serveClient, th *thread) error {
	ctx := context.Background()
	wireBefore := cl.wire.bytes.Load()
	var err error
	call := func(what string, f func() error) bool {
		th.do("service", what, func() { err = f() })
		if err != nil {
			err = fmt.Errorf("%s: %w", what, err)
		}
		return err == nil
	}

	var hit *dhpf.CompileResponse
	if !call("hit", func() (e error) { hit, e = cl.api.Compile(ctx, s.hot); return }) {
		return err
	}
	if err := sameCompile("hit", hit, s.refs.compile, true); err != nil {
		return err
	}
	var ex *dhpf.ExplainResponse
	if !call("explain", func() (e error) { ex, e = cl.api.Explain(ctx, s.hot); return }) {
		return err
	}
	if !ex.Cached || ex.Table != s.refs.explain.Table {
		return fmt.Errorf("explain: response differs from the reference")
	}
	var ver *dhpf.VerifyResponse
	if !call("verify", func() (e error) {
		ver, e = cl.api.Verify(ctx, dhpf.VerifyRequest{Source: s.hot.Source})
		return
	}) {
		return err
	}
	if !ver.Clean || ver.Text != s.refs.verify.Text {
		return fmt.Errorf("verify: response differs from the reference")
	}
	var an *dhpf.AnalyzeResponse
	if !call("analyze", func() (e error) {
		an, e = cl.api.Analyze(ctx, dhpf.AnalyzeRequest{Source: s.hot.Source})
		return
	}) {
		return err
	}
	if !an.Clean || an.Text != s.refs.analyze.Text {
		return fmt.Errorf("analyze: response differs from the reference")
	}

	src, err := edit(s.spmod, cl.edits.next())
	if err != nil {
		return err
	}
	editReq := dhpf.CompileRequest{Source: src}
	var edited, again *dhpf.CompileResponse
	if !call("edit", func() (e error) { edited, e = cl.api.Compile(ctx, editReq); return }) {
		return err
	}
	atomic.AddInt64(&s.editsSince, 1)
	if edited.Cached || edited.Ranks != ranks || edited.Report != s.refs.editReport || textBytes(edited) != s.refs.editBytes {
		return fmt.Errorf("edit: response differs from the reference (cached=%v ranks=%d report=%v bytes=%d want %d)", edited.Cached, edited.Ranks, edited.Report == s.refs.editReport, textBytes(edited), s.refs.editBytes)
	}
	if !call("rehit", func() (e error) { again, e = cl.api.Compile(ctx, editReq); return }) {
		return err
	}
	if err := sameCompile("rehit", again, edited, true); err != nil {
		return err
	}
	var batch *dhpf.BatchCompileResponse
	if !call("batch", func() (e error) {
		batch, e = cl.api.CompileBatch(ctx, dhpf.BatchCompileRequest{Requests: []dhpf.CompileRequest{s.hot, s.hotBT, editReq}})
		return
	}) {
		return err
	}
	if len(batch.Results) != 3 {
		return fmt.Errorf("batch: %d results, want 3", len(batch.Results))
	}
	for i, want := range []*dhpf.CompileResponse{s.refs.compile, s.refs.bt, edited} {
		got := batch.Results[i]
		if got.Error != "" || got.Response == nil {
			return fmt.Errorf("batch member %d: %s", i, got.Error)
		}
		// bt12 is hot in memory but not pinned on disk: once the store
		// is full, the first edit after a restart may evict it (replay
		// restores journal order, not recency) and this request then
		// recompiles it — to the same text.
		if err := sameCompile(fmt.Sprintf("batch member %d", i), got.Response, want, i != 1); err != nil {
			return err
		}
	}
	var run *dhpf.RunResponse
	if !call("run", func() (e error) { run, e = cl.api.Run(ctx, s.hotRun); return }) {
		return err
	}
	want := s.refs.run
	if math.Float64bits(run.Seconds) != math.Float64bits(want.Seconds) || run.Messages != want.Messages || run.Bytes != want.Bytes {
		return fmt.Errorf("run: virtual time or traffic differs from the reference")
	}
	got, ref := run.Arrays["u"].Data, want.Arrays["u"].Data
	if len(got) != len(ref) {
		return fmt.Errorf("run: array u has %d elements, want %d", len(got), len(ref))
	}
	for i := range ref {
		if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
			return fmt.Errorf("run: array u element %d differs from the reference", i)
		}
	}
	s.sessions.Add(1)
	s.sessionBytes.Add(cl.wire.bytes.Load() - wireBefore)
	return nil
}

// run drives both clients through n sessions in all (rounded up to a
// whole session per client), restarting the daemon whenever each client
// has completed restartEvery sessions since the last start.
func (s *serveInstance) run(_, n int, tr *tracer, rec *recorder) {
	if tr != nil && s.traceBase == nil {
		base := s.totals()
		s.traceBase = &base
	}
	type outcome struct {
		op  int
		ms  float64
		err error
	}
	perClient := (n + serveClients - 1) / serveClients
	before := calibrate()
	for done := 0; done < perClient; {
		// One chunk: both clients run their sessions side by side
		// between two runs of the reference kernel, which has the
		// cores to itself only while the clients are joined.
		chunk := min(perClient-done, restartEvery-s.sinceRestart, calibrateEvery)
		outcomes := make([][]outcome, serveClients)
		var wg sync.WaitGroup
		for c, cl := range s.clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				th := tr.thread()
				for j := 0; j < chunk; j++ {
					op := int(s.opSeq.Add(1))
					th.setOp(op)
					t0 := time.Now()
					var err error
					th.do("harness", "op", func() { err = s.session(cl, th) })
					outcomes[c] = append(outcomes[c], outcome{op, float64(time.Since(t0).Nanoseconds()) / 1e6, err})
				}
			}()
		}
		wg.Wait()
		after := calibrate()
		sp := speed(before, after)
		for _, list := range outcomes {
			for _, o := range list {
				tr.setSpeed(o.op, sp)
				rec.done(o.ms*sp, sp, o.err)
			}
		}
		before = after
		done += chunk
		s.sinceRestart += chunk
		if err := s.expectations(); err != nil {
			rec.fail(err)
		}
		if s.sinceRestart == restartEvery {
			var err error
			if before, err = s.timedRestart(after); err != nil {
				rec.fail(fmt.Errorf("restart: %w", err))
			}
		}
	}
}

// timedRestart restarts the daemon between two kernel times — the first
// already taken, the second returned — and keeps the sample.
func (s *serveInstance) timedRestart(before float64) (after float64, err error) {
	replay, total, err := s.restart()
	after = calibrate()
	if err != nil {
		return after, err
	}
	sp := speed(before, after)
	s.replays = append(s.replays, replay*sp)
	s.restarts = append(s.restarts, total*sp)
	return after, nil
}

// dirtyPerEdit is what one edit inside add may recompute: every artifact
// kind of add and of main, whose environment embeds its callees.
var dirtyPerEdit = int64(2 * len(passes.ArtifactKinds()))

// A daemon generation may also recompile what a full store evicted
// while it was down — the three hot programs besides sp16 and, for its
// first edit, the modular SP's clean procedures — once per client racing
// for it.  Beyond that, every request but the edits is a cache hit.
const (
	evictableCompiles = 3 * serveClients
	evictableProcs    = (3 + 7) * serveClients
)

// expectations checks what only the daemon's own counters show: nothing
// was refused or failed, it compiled once per edit and little else, and
// an edit recomputed add and main only.
func (s *serveInstance) expectations() error {
	st := s.srv.Stats()
	edits := atomic.LoadInt64(&s.editsSince)
	st.Server.Compiles -= s.primed.Server.Compiles
	st.Artifacts.Dirty -= s.primed.Artifacts.Dirty
	switch {
	case st.Server.Errors != 0 || st.Server.Rejected != 0 || st.Server.Timeouts != 0:
		return fmt.Errorf("daemon counted %d errors, %d refusals, %d timeouts", st.Server.Errors, st.Server.Rejected, st.Server.Timeouts)
	case st.Server.Compiles < edits || st.Server.Compiles > edits+evictableCompiles:
		return fmt.Errorf("daemon compiled %d times for %d edits", st.Server.Compiles, edits)
	case st.Artifacts.Dirty > dirtyPerEdit*edits+int64(len(passes.ArtifactKinds()))*evictableProcs:
		return fmt.Errorf("%d artifacts recomputed over %d edits: an edit dirtied more than add and main", st.Artifacts.Dirty, edits)
	}
	return nil
}

// harvest folds the live generation's counters into gone.
func (s *serveInstance) harvest() {
	g := s.totals()
	s.gone = g
	atomic.StoreInt64(&s.editsSince, 0)
}

// totals is gone plus the live generation.
func (s *serveInstance) totals() serveCounters {
	t := s.gone
	st := s.srv.Stats()
	t.cacheHits += st.Cache.Hits
	t.cacheMisses += st.Cache.Misses
	t.cacheBacking += st.Cache.BackingHits
	t.coalesced += st.Cache.InflightCoalesced
	t.artHits += st.Artifacts.Hits
	t.artDirty += st.Artifacts.Dirty
	t.artBacking += st.Artifacts.BackingHits
	t.compiles += st.Server.Compiles
	t.rejected += st.Server.Rejected
	if st.Store != nil {
		t.chunkPuts += st.Store.ChunkPuts
		t.dedupHits += st.Store.DedupHits
		t.evictions += st.Store.Evictions
		t.compactions += st.Store.Compactions
		t.journalBytes = st.Store.JournalBytes
	}
	return t
}

// restart is the daemon's: server closed, store closed, journal
// replayed, fresh service.  The first hot compile must come back cached
// with no compile counted.  It returns the journal replay's and the
// whole restart's wall time in milliseconds.
func (s *serveInstance) restart() (replayMS, totalMS float64, err error) {
	s.harvest()
	s.ts.Close()
	for _, cl := range s.clients {
		cl.wire.next.CloseIdleConnections()
	}
	if err := s.st.Close(); err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	st, err := store.Open(s.path, store.Options{MaxBytes: storeBytes})
	if err != nil {
		return 0, 0, err
	}
	replay := time.Since(t0)
	s.st = st
	s.srv = service.New(s.config())
	s.primed = dhpf.StatsResponse{}
	s.ts = httptest.NewServer(s.srv.Handler())
	for _, cl := range s.clients {
		cl.api.BaseURL = s.ts.URL
	}
	resp, err := s.clients[0].api.Compile(context.Background(), s.hot)
	total := time.Since(t0)
	s.sinceRestart = 0
	if err != nil {
		return 0, 0, err
	}
	if err := sameCompile("first hot compile", resp, s.refs.compile, true); err != nil {
		return 0, 0, err
	}
	if n := s.srv.Stats().Server.Compiles; n != 0 {
		return 0, 0, fmt.Errorf("first hot compile cost %d compiles, want 0", n)
	}
	return float64(replay.Nanoseconds()) / 1e6, float64(total.Nanoseconds()) / 1e6, nil
}

// coldStarts restarts the daemon n more times over the store as the
// timed loop left it.  The loop's own restarts replay a journal that
// grows through the run, so their median hangs on the two samples in the
// middle; these all replay the same journal — every edit of the run, at
// the eviction limit — and write nothing.
func (s *serveInstance) coldStarts(n int) ([]float64, error) {
	first := len(s.restarts)
	before := calibrate()
	for i := 0; i < n; i++ {
		var err error
		if before, err = s.timedRestart(before); err != nil {
			return nil, err
		}
	}
	return s.restarts[first:], nil
}

// outputBytes is the mean of the response bodies one session reads.
func (s *serveInstance) outputBytes() float64 {
	if s.sessions.Load() == 0 {
		return 0
	}
	return float64(s.sessionBytes.Load()) / float64(s.sessions.Load())
}

func (s *serveInstance) facts() facts {
	r := s.refs.run
	return facts{virtualMS: r.Seconds * 1e3, msgs: r.Messages, bytes: r.Bytes, vsHand: r.Seconds / s.handTime}
}

func (s *serveInstance) close() error {
	if s.ts != nil {
		s.ts.Close()
	}
	for _, cl := range s.clients {
		cl.wire.next.CloseIdleConnections()
	}
	var err error
	if s.st != nil {
		err = s.st.Close()
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

var serveSession = workload{
	name:      "serve-session",
	why:       "2 closed-loop clients, 8-request edit sessions over HTTP against dhpfd with a 32 MiB store, restart every 20: caches, incremental passes, store, codec and JSON do the work, passes almost none",
	opsPer10s: 560,
	setup:     setupServe,
	defs: []layerDef{
		{"service.hit_ms", "ms", "lower"},
		{"service.explain_ms", "ms", "lower"},
		{"service.verify_ms", "ms", "lower"},
		{"service.analyze_ms", "ms", "lower"},
		{"service.edit_ms", "ms", "lower"},
		{"service.rehit_ms", "ms", "lower"},
		{"service.batch_ms", "ms", "lower"},
		{"service.run_ms", "ms", "lower"},
		{"service.http_overhead_us", "us", "lower"},
		{"service.resp_kb", "KiB", "lower"},
		{"service.compiles", "count", "lower"},
		{"service.rejected", "count", "lower"},
		{"cache.hits", "count", "higher"},
		{"cache.misses", "count", "lower"},
		{"cache.backing_hits", "count", "higher"},
		{"cache.coalesced", "count", "higher"},
		{"cache.hit_share", "ratio", "higher"},
		{"cache.getorcompute_hit_ns", "ns", "lower"},
		{"artifacts.hits", "count", "higher"},
		{"artifacts.dirty", "count", "lower"},
		{"artifacts.backing_hits", "count", "higher"},
		{"passes.incremental_ms", "ms", "lower"},
		{"store.chunk_puts", "count", "lower"},
		{"store.dedup_hits", "count", "higher"},
		{"store.evictions", "count", "lower"},
		{"store.compactions", "count", "lower"},
		{"store.journal_kb", "KiB", "lower"},
		{"store.open_replay_ms", "ms", "lower"},
		{"store.put_chunk_us", "us", "lower"},
		{"store.get_chunk_us", "us", "lower"},
		{"store.put_manifest_us", "us", "lower"},
		{"store.compact_ms", "ms", "lower"},
		{"codec.roundtrip_us", "us", "lower"},
	},
	layers: serveLayers,
}

func serveLayers(e env, inst instance, tr *tracer) (map[string]float64, error) {
	s := inst.(*serveInstance)
	out := map[string]float64{}
	for _, kind := range []string{"hit", "explain", "verify", "analyze", "edit", "rehit", "batch", "run"} {
		out["service."+kind+"_ms"] = median(tr.perOp("service." + kind))
	}
	now := s.totals()
	base := serveCounters{}
	if s.traceBase != nil {
		base = *s.traceBase
	}
	out["service.compiles"] = float64(now.compiles - base.compiles)
	out["service.rejected"] = float64(now.rejected - base.rejected)
	out["cache.hits"] = float64(now.cacheHits - base.cacheHits)
	out["cache.misses"] = float64(now.cacheMisses - base.cacheMisses)
	out["cache.backing_hits"] = float64(now.cacheBacking - base.cacheBacking)
	out["cache.coalesced"] = float64(now.coalesced - base.coalesced)
	if lookups := out["cache.hits"] + out["cache.misses"] + out["cache.coalesced"]; lookups > 0 {
		out["cache.hit_share"] = (out["cache.hits"] + out["cache.coalesced"]) / lookups
	}
	out["artifacts.hits"] = float64(now.artHits - base.artHits)
	out["artifacts.dirty"] = float64(now.artDirty - base.artDirty)
	out["artifacts.backing_hits"] = float64(now.artBacking - base.artBacking)
	out["store.chunk_puts"] = float64(now.chunkPuts - base.chunkPuts)
	out["store.dedup_hits"] = float64(now.dedupHits - base.dedupHits)
	out["store.evictions"] = float64(now.evictions - base.evictions)
	out["store.compactions"] = float64(now.compactions - base.compactions)
	out["store.journal_kb"] = float64(now.journalBytes) / 1024
	out["service.resp_kb"] = s.outputBytes() / requestsPerSession / 1024
	if _, err := s.coldStarts(5); err != nil {
		return nil, err
	}
	out["store.open_replay_ms"] = median(s.replays)

	// The same hot request over loopback and straight into the handler:
	// the difference is what the socket and net/http's server cost.
	body, err := json.Marshal(s.hot)
	if err != nil {
		return nil, err
	}
	handler := s.srv.Handler()
	direct, err := sampleMS(50, func() error {
		rr := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/compile", bytes.NewReader(body))
		handler.ServeHTTP(rr, req)
		if rr.Code != http.StatusOK {
			return fmt.Errorf("handler answered %d", rr.Code)
		}
		var resp dhpf.CompileResponse
		return json.NewDecoder(rr.Body).Decode(&resp)
	})
	if err != nil {
		return nil, err
	}
	loopback, err := sampleMS(50, func() error {
		_, err := s.clients[0].api.Compile(context.Background(), s.hot)
		return err
	})
	if err != nil {
		return nil, err
	}
	out["service.http_overhead_us"] = (loopback - direct) * 1e3

	// The session's edit without the daemon around it.
	inc := dhpf.NewIncremental(0)
	if _, _, err := inc.Compile(s.spmod, nil, dhpf.DefaultOptions()); err != nil {
		return nil, err
	}
	edits := newEditStream(e.seed, serveClients, serveClients+1)
	if out["passes.incremental_ms"], err = sampleMS(20, func() error {
		src, err := edit(s.spmod, edits.next())
		if err != nil {
			return err
		}
		_, delta, err := inc.Compile(src, nil, dhpf.DefaultOptions())
		if err == nil && delta.Dirty >= delta.Procs {
			err = fmt.Errorf("warm edit dirtied every procedure: %v", delta)
		}
		return err
	}); err != nil {
		return nil, err
	}
	if err := storeProbes(e, out); err != nil {
		return nil, err
	}

	// A 64 KiB payload through the versioned envelope and back.
	payload := strings.Repeat("dhpf", 16<<10)
	if out["codec.roundtrip_us"], err = sampleMS(200, func() error {
		w := codec.NewWriter("bench", 1)
		w.Int(len(payload))
		w.String(payload)
		r, err := codec.NewReader(w.Bytes(), "bench", 1)
		if err != nil {
			return err
		}
		if r.Int() != len(payload) || r.String() != payload || !r.Done() {
			return fmt.Errorf("codec round trip lost data")
		}
		return nil
	}); err != nil {
		return nil, err
	}
	out["codec.roundtrip_us"] *= 1e3

	c := cache.New[int](1 << 20)
	compute := func(context.Context) (int, int64, error) { return 1, 8, nil }
	if _, _, err := c.GetOrCompute(context.Background(), "k", compute); err != nil {
		return nil, err
	}
	out["cache.getorcompute_hit_ns"] = perCallNS(func() { c.GetOrCompute(context.Background(), "k", compute) })
	return out, nil
}

// storeProbes times the chunk store's primitives on a store of its own.
func storeProbes(e env, out map[string]float64) error {
	dir, err := os.MkdirTemp(e.tmp, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(filepath.Join(dir, "probe.store"), store.Options{NoAutoCompact: true})
	if err != nil {
		return err
	}
	defer st.Close()
	const n = 64
	chunk := make([]byte, 64<<10)
	var addrs []store.Addr
	i := 0
	if out["store.put_chunk_us"], err = sampleMS(n, func() error {
		// Distinct content each time, or the put is a dedup hit.
		copy(chunk, fmt.Sprintf("chunk %d", i))
		i++
		addr, err := st.PutChunk(chunk)
		addrs = append(addrs, addr)
		return err
	}); err != nil {
		return err
	}
	i = 0
	if out["store.put_manifest_us"], err = sampleMS(n, func() error {
		m := store.Manifest{Kind: "probe", Refs: []store.ChunkRef{{Name: "c", Addr: addrs[i]}}}
		i++
		return st.PutManifest(fmt.Sprintf("key-%d", i), m)
	}); err != nil {
		return err
	}
	i = 0
	if out["store.get_chunk_us"], err = sampleMS(n, func() error {
		_, ok := st.GetChunk(addrs[i])
		i++
		if !ok {
			return fmt.Errorf("chunk lost")
		}
		return nil
	}); err != nil {
		return err
	}
	for _, k := range []string{"store.put_chunk_us", "store.put_manifest_us", "store.get_chunk_us"} {
		out[k] *= 1e3
	}
	// Half the manifests die, then the journal is rewritten.
	for k := 1; k <= n/2; k++ {
		if err := st.Delete(fmt.Sprintf("key-%d", k)); err != nil {
			return err
		}
	}
	out["store.compact_ms"], err = sampleMS(1, st.Compact)
	return err
}
