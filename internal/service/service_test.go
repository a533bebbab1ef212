package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dhpf"
	"dhpf/internal/nas"
	"dhpf/internal/spmd"
)

const tinySrc = `
program tiny
param N = 16
param P = 4
!hpf$ processors procs(P)
!hpf$ template t(N)
!hpf$ align a with t(d0)
!hpf$ distribute t(BLOCK) onto procs

subroutine main()
  real a(0:N-1)
  !hpf$ independent
  do i = 0, N-1
    a(i) = 2.0*i
  enddo
end
`

func newTestServer(t *testing.T, cfg Config) (*Server, *dhpf.Client) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, dhpf.NewClient(ts.URL)
}

// TestWarmHitByteIdentical: a warm /v1/compile hit returns byte-identical
// report and node programs to the cold compile, which in turn match a
// direct library compile of the same inputs.
func TestWarmHitByteIdentical(t *testing.T) {
	_, client := newTestServer(t, Config{})
	src := nas.SPSource(12, 1, 2, 2)
	req := dhpf.CompileRequest{Source: src}

	cold, err := client.Compile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cached {
		t.Error("first compile reported cached")
	}
	warm, err := client.Compile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Error("second compile not served from cache")
	}
	if cold.Fingerprint != warm.Fingerprint {
		t.Errorf("fingerprints differ: %s vs %s", cold.Fingerprint, warm.Fingerprint)
	}
	if warm.Report != cold.Report {
		t.Error("warm report differs from cold report")
	}
	if len(warm.NodePrograms) != cold.Ranks || len(cold.NodePrograms) != cold.Ranks {
		t.Fatalf("node program counts: warm %d cold %d want %d",
			len(warm.NodePrograms), len(cold.NodePrograms), cold.Ranks)
	}
	for rk := range cold.NodePrograms {
		if warm.NodePrograms[rk] != cold.NodePrograms[rk] {
			t.Errorf("rank %d node program differs warm vs cold", rk)
		}
	}

	prog, err := dhpf.Compile(src, nil, dhpf.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if cold.Report != prog.Report() {
		t.Error("service report differs from library compile")
	}
	if cold.NodePrograms[0] != prog.NodeProgram(0) {
		t.Error("service node program differs from library compile")
	}
	if got := dhpf.Fingerprint(src, nil, dhpf.DefaultOptions()); got != cold.Fingerprint {
		t.Errorf("service key %s != library key %s", cold.Fingerprint, got)
	}
}

// TestConcurrent32Singleflight: 32 concurrent identical requests against
// a 4-worker pool compile exactly once; the rest hit the cache or
// coalesce onto the in-flight compile (visible in /v1/stats).
func TestConcurrent32Singleflight(t *testing.T) {
	_, client := newTestServer(t, Config{Workers: 4, QueueDepth: 64})
	req := dhpf.CompileRequest{Source: nas.SPSource(12, 1, 2, 2), Ranks: []int{0}}

	const n = 32
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, n)
	reports := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := client.Compile(context.Background(), req)
			errs[i] = err
			if err == nil {
				reports[i] = resp.Report
			}
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if reports[i] != reports[0] {
			t.Errorf("request %d got a different report", i)
		}
	}
	stats, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cache.Misses != 1 {
		t.Errorf("identical requests compiled %d times, want 1 (singleflight)", stats.Cache.Misses)
	}
	if got := stats.Cache.Hits + stats.Cache.InflightCoalesced; got != n-1 {
		t.Errorf("hits+coalesced = %d, want %d", got, n-1)
	}
	if stats.Server.Compiles != 1 {
		t.Errorf("server ran %d compiles, want 1", stats.Server.Compiles)
	}
}

// TestConcurrentDistinct: 32 concurrent *distinct* compiles drain through
// the 4-worker pool without loss (run under -race in CI).
func TestConcurrentDistinct(t *testing.T) {
	_, client := newTestServer(t, Config{Workers: 4, QueueDepth: 64})
	const n = 32
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := dhpf.CompileRequest{
				Source: tinySrc,
				Params: map[string]int{"SEED": i}, // unique cache key per request
				Ranks:  []int{0},
			}
			_, errs[i] = client.Compile(context.Background(), req)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("request %d: %v", i, err)
		}
	}
}

// TestQueueFull429: with one worker and a queue of one, a third distinct
// compile is rejected with 429 while the first two are in flight.
func TestQueueFull429(t *testing.T) {
	release := make(chan struct{})
	testPreCompile = func(context.Context) { <-release }
	defer func() { testPreCompile = nil }()

	srv, client := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	reqN := func(i int) dhpf.CompileRequest {
		return dhpf.CompileRequest{Source: tinySrc, Params: map[string]int{"SEED": i}, Ranks: []int{0}}
	}
	var wg sync.WaitGroup
	firstTwo := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, firstTwo[i] = client.Compile(context.Background(), reqN(i))
		}(i)
	}
	// Wait until one compile occupies the worker and one waits in queue.
	deadline := time.Now().Add(5 * time.Second)
	for srv.pending.Load() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("pool never filled: pending=%d", srv.pending.Load())
		}
		time.Sleep(time.Millisecond)
	}
	_, err := client.Compile(context.Background(), reqN(2))
	var apiErr *dhpf.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third compile: want 429, got %v", err)
	}
	close(release)
	wg.Wait()
	for i, err := range firstTwo {
		if err != nil {
			t.Errorf("queued compile %d failed: %v", i, err)
		}
	}
	if got := srv.Stats().Server.Rejected; got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}
}

// TestCancelAbortsWithoutCorruption: a client that gives up cancels the
// in-flight compile between passes; the same key then compiles cleanly.
func TestCancelAbortsWithoutCorruption(t *testing.T) {
	entered := make(chan struct{}, 1)
	testPreCompile = func(ctx context.Context) {
		entered <- struct{}{}
		<-ctx.Done() // hold the worker until the last waiter gives up
	}
	defer func() { testPreCompile = nil }()

	srv, client := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	req := dhpf.CompileRequest{Source: tinySrc, Ranks: []int{0}}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := client.Compile(ctx, req)
		done <- err
	}()
	<-entered
	cancel()
	if err := <-done; err == nil {
		t.Fatal("cancelled request reported success")
	}

	// The aborted flight must not have cached anything or leaked the
	// worker: the same request now compiles successfully.  The client
	// gave up before the server noticed: the flight ends once the first
	// request's connection does, its last waiter gone.  Wait for that.
	// A request sent before it would join the flight — and, joining
	// while the first waiter is still there, keep it alive, the hook
	// holding the only worker until the joiner's own timeout.
	testPreCompile = nil
	for srv.cache.Inflight() > 0 {
		time.Sleep(time.Millisecond)
	}
	resp, err := client.Compile(context.Background(), req)
	if err != nil {
		t.Fatalf("recompile after abort: %v", err)
	}
	if resp.Cached {
		t.Error("aborted compile left a cache entry")
	}
	if got := srv.cache.Stats().Entries; got != 1 {
		t.Errorf("cache entries = %d, want 1", got)
	}
}

// TestCompilePanicIs500: a compile that panics fails its request with
// 500 instead of taking the daemon down; it caches nothing and releases
// its worker, so the next identical request compiles and answers 200.
func TestCompilePanicIs500(t *testing.T) {
	var panicked atomic.Bool
	testPreCompile = func(context.Context) {
		if panicked.CompareAndSwap(false, true) {
			panic("boom in the compiler")
		}
	}
	defer func() { testPreCompile = nil }()

	srv, client := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	req := dhpf.CompileRequest{Source: tinySrc, Ranks: []int{0}}
	_, err := client.Compile(context.Background(), req)
	var apiErr *dhpf.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusInternalServerError ||
		!strings.Contains(apiErr.Message, "boom in the compiler") {
		t.Fatalf("panicking compile: want 500 carrying the panic, got %v", err)
	}
	resp, err := client.Compile(context.Background(), req)
	if err != nil {
		t.Fatalf("compile after the panic: %v", err)
	}
	if resp.Cached {
		t.Error("the panicked compile left a cache entry")
	}
	if got := srv.pending.Load(); got != 0 {
		t.Errorf("pending = %d after both requests, want 0", got)
	}
}

// TestHandlerPanicIs500: a panic in a handler's own code, outside any
// cache flight, answers 500 with an APIError naming the path and counts
// as an error — net/http alone would drop the connection.
func TestHandlerPanicIs500(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.logged(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom in a handler")
	})))
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/boom", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatalf("panicking handler: want a 500, got %v", err)
	}
	defer resp.Body.Close()
	var apiErr dhpf.APIError
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatalf("500 body is not an APIError: %v", err)
	}
	if resp.StatusCode != http.StatusInternalServerError ||
		!strings.Contains(apiErr.Message, "/v1/boom") || !strings.Contains(apiErr.Message, "boom in a handler") {
		t.Fatalf("panicking handler: status %d, message %q; want 500 naming the path and the panic", resp.StatusCode, apiErr.Message)
	}
	if st := srv.Stats().Server; st.Errors != 1 || st.Active != 0 {
		t.Errorf("after the panic: errors %d, active %d; want 1 and 0", st.Errors, st.Active)
	}

	// Once the response has begun a 500 cannot be sent: the connection is
	// cut instead of a second body being appended to the first.
	late := httptest.NewServer(srv.logged(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(`{"partial":`))
		panic("boom after the header")
	})))
	defer late.Close()
	if resp, err := http.Get(late.URL + "/v1/late"); err == nil {
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil {
			t.Errorf("panic after the header: read a whole %d response %q, want the connection cut", resp.StatusCode, body)
		}
	}
	if got := srv.Stats().Server.Errors; got != 2 {
		t.Errorf("errors after the second panic = %d, want 2", got)
	}
}

// TestCancelWhileQueued: cancelling a request that is still waiting for
// a worker returns its context error promptly and releases the queue
// slot without the request ever occupying a worker or compiling.
func TestCancelWhileQueued(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	testPreCompile = func(context.Context) { entered <- struct{}{}; <-release }
	defer func() { testPreCompile = nil }()

	srv, client := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	hold := dhpf.CompileRequest{Source: tinySrc, Ranks: []int{0}}
	queued := dhpf.CompileRequest{Source: tinySrc, Params: map[string]int{"SEED": 1}, Ranks: []int{0}}

	holdDone := make(chan error, 1)
	go func() {
		_, err := client.Compile(context.Background(), hold)
		holdDone <- err
	}()
	// Only after the hold request is confirmed inside the worker slot is
	// the second request sent: with a distinct fingerprint it cannot
	// coalesce, so it must wait in the queue behind the held worker.
	<-entered
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	queuedDone := make(chan error, 1)
	go func() {
		_, err := client.Compile(ctx, queued)
		queuedDone <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.pending.Load() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: pending=%d", srv.pending.Load())
		}
		time.Sleep(time.Millisecond)
	}

	cancel()
	select {
	case err := <-queuedDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("queued request: want context.Canceled, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled queued request did not return promptly")
	}
	// The queue slot frees while the worker is still held.
	for deadline = time.Now().Add(5 * time.Second); srv.pending.Load() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("cancelled request still pending: pending=%d", srv.pending.Load())
		}
	}

	close(release)
	if err := <-holdDone; err != nil {
		t.Fatalf("held compile failed: %v", err)
	}
	if got := srv.Stats().Server.Compiles; got != 1 {
		t.Errorf("compiles = %d, want 1 (cancelled request must never reach a worker)", got)
	}
}

// TestTimeout504: a server-side deadline shorter than any compile yields
// 504 and counts as a timeout.
func TestTimeout504(t *testing.T) {
	srv, client := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	_, err := client.Compile(context.Background(), dhpf.CompileRequest{Source: tinySrc})
	var apiErr *dhpf.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("want 504, got %v", err)
	}
	if got := srv.Stats().Server.Timeouts; got != 1 {
		t.Errorf("timeout counter = %d, want 1", got)
	}
}

// TestExplainAndRun: /v1/explain returns the -explain table, /v1/run the
// virtual-time counters and requested arrays, both through the cache.
func TestExplainAndRun(t *testing.T) {
	_, client := newTestServer(t, Config{})
	expl, err := client.Explain(context.Background(), dhpf.CompileRequest{
		Source:  tinySrc,
		Options: &dhpf.RequestOptions{Instrument: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(expl.Table, "parse") || !strings.Contains(expl.Table, "Δbytes") {
		t.Errorf("explain table malformed:\n%s", expl.Table)
	}
	if len(expl.PassStats) == 0 {
		t.Error("explain returned no pass stats")
	}

	run, err := client.Run(context.Background(), dhpf.RunRequest{
		Source: tinySrc, Machine: "sp2:4", Arrays: []string{"a"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.Ranks != 4 || run.Seconds <= 0 || len(run.RankSeconds) != 4 {
		t.Errorf("run counters: ranks=%d s=%g rank_seconds=%d", run.Ranks, run.Seconds, len(run.RankSeconds))
	}
	a := run.Arrays["a"]
	if len(a.Data) != 16 {
		t.Fatalf("array a has %d elements", len(a.Data))
	}
	for i, v := range a.Data {
		if v != 2.0*float64(i) {
			t.Fatalf("a[%d] = %g, want %g", i, v, 2.0*float64(i))
		}
	}

	// The run endpoint shares the compile cache.
	run2, err := client.Run(context.Background(), dhpf.RunRequest{Source: tinySrc, Machine: "sp2"})
	if err != nil {
		t.Fatal(err)
	}
	if !run2.Cached {
		t.Error("second run did not reuse the cached program")
	}
}

// TestRunRefusesDeadlock: a program the machine cannot finish is a 422
// naming the cycle, not a request that never returns — and the server,
// here with a single worker, serves the next run.
func TestRunRefusesDeadlock(t *testing.T) {
	_, client := newTestServer(t, Config{Workers: 1})
	src, err := os.ReadFile("../../testdata/ysolve.hpf")
	if err != nil {
		t.Fatal(err)
	}
	req := dhpf.RunRequest{Source: string(src), Machine: "sp2:4",
		Options: &dhpf.RequestOptions{Disable: []string{dhpf.PassAvailability}}}
	_, err = client.Run(context.Background(), req)
	var apiErr *dhpf.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusUnprocessableEntity ||
		!strings.Contains(err.Error(), "deadlock: rank 0 <- rank 1 tag ") {
		t.Fatalf("run without availability analysis: %v, want a 422 carrying the cycle", err)
	}
	req.Options = nil
	if run, err := client.Run(context.Background(), req); err != nil || run.Seconds <= 0 {
		t.Fatalf("run after the refused one: %+v, %v", run, err)
	}
}

// TestRunEngineField: /v1/run's engine selector.  Both engines return
// identical run responses — same fingerprint (engine choice is not a
// compile concern), bit-identical virtual clocks, traffic, and gathered
// arrays — and an unknown engine is a 422.
func TestRunEngineField(t *testing.T) {
	_, client := newTestServer(t, Config{})
	src := nas.SPSource(12, 1, 2, 2)
	base := dhpf.RunRequest{Source: src, Machine: "sp2:4", Arrays: []string{"u"}}

	reqC := base
	reqC.Engine = "compiled"
	runC, err := client.Run(context.Background(), reqC)
	if err != nil {
		t.Fatal(err)
	}
	reqI := base
	reqI.Engine = "interp"
	runI, err := client.Run(context.Background(), reqI)
	if err != nil {
		t.Fatal(err)
	}
	if runC.Fingerprint != runI.Fingerprint {
		t.Errorf("fingerprints differ across engines: %s vs %s", runC.Fingerprint, runI.Fingerprint)
	}
	if math.Float64bits(runC.Seconds) != math.Float64bits(runI.Seconds) {
		t.Errorf("virtual time differs: compiled %v, interp %v", runC.Seconds, runI.Seconds)
	}
	if runC.Messages != runI.Messages || runC.Bytes != runI.Bytes {
		t.Errorf("traffic differs: compiled %d/%d, interp %d/%d",
			runC.Messages, runC.Bytes, runI.Messages, runI.Bytes)
	}
	if _, err := spmd.Agree("rank clock", runC.RankSeconds, runI.RankSeconds, 0); err != nil {
		t.Errorf("compiled against interp: %v", err)
	}
	uc, ui := runC.Arrays["u"], runI.Arrays["u"]
	if len(uc.Data) == 0 {
		t.Fatal("no u returned")
	}
	if _, err := spmd.Agree("u", uc.Data, ui.Data, 0); err != nil {
		t.Fatalf("compiled against interp: %v", err)
	}

	bad := base
	bad.Engine = "bogus"
	_, err = client.Run(context.Background(), bad)
	var apiErr *dhpf.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("bad engine error = %v, want 422", err)
	}
}

// TestBadRequests: malformed inputs map to the right statuses.
func TestBadRequests(t *testing.T) {
	_, client := newTestServer(t, Config{})
	cases := []struct {
		name   string
		call   func() error
		status int
	}{
		{"compile error", func() error {
			_, err := client.Compile(context.Background(), dhpf.CompileRequest{Source: "not hpf"})
			return err
		}, http.StatusUnprocessableEntity},
		{"loop bound over a loop variable", func() error { // once a compiler panic
			_, err := client.Compile(context.Background(), dhpf.CompileRequest{
				Source: strings.Replace(tinySrc, "do i = 0, N-1", "do k = 0, N-1\n  enddo\n  do i = 0, k", 1)})
			if err == nil || !strings.Contains(err.Error(), "not a program parameter") {
				return fmt.Errorf("want the loop-bound diagnostic, got %v", err)
			}
			return err
		}, http.StatusUnprocessableEntity},
		{"one array, two ranks", func() error { // once a compiler panic
			_, err := client.Compile(context.Background(), dhpf.CompileRequest{
				Source: strings.Replace(tinySrc, "a(i) = 2.0*i", "a(i) = b(i,0)\n    b(i) = 1.0", 1)})
			if err == nil || !strings.Contains(err.Error(), `array "b" has rank 2`) {
				return fmt.Errorf("want the reference-rank diagnostic, got %v", err)
			}
			return err
		}, http.StatusUnprocessableEntity},
		{"bad newprop", func() error {
			_, err := client.Compile(context.Background(), dhpf.CompileRequest{
				Source: tinySrc, Options: &dhpf.RequestOptions{NewProp: "wat"}})
			return err
		}, http.StatusUnprocessableEntity},
		{"bad disable", func() error {
			_, err := client.Compile(context.Background(), dhpf.CompileRequest{
				Source: tinySrc, Options: &dhpf.RequestOptions{Disable: []string{"nosuchpass"}}})
			return err
		}, http.StatusUnprocessableEntity},
		// nodeProgram relies on this refusal: it is never asked for a
		// rank the program does not have.
		{"bad rank", func() error {
			_, err := client.Compile(context.Background(), dhpf.CompileRequest{Source: tinySrc, Ranks: []int{4}})
			if err == nil || !strings.Contains(err.Error(), "rank 4 out of range (program has 4 ranks)") {
				return fmt.Errorf("want the refusal to name the rank count, got %v", err)
			}
			return err
		}, http.StatusUnprocessableEntity},
		{"bad machine", func() error {
			_, err := client.Run(context.Background(), dhpf.RunRequest{Source: tinySrc, Machine: "cray:4"})
			return err
		}, http.StatusUnprocessableEntity},
		{"machine rank mismatch", func() error {
			_, err := client.Run(context.Background(), dhpf.RunRequest{Source: tinySrc, Machine: "sp2:25"})
			return err
		}, http.StatusUnprocessableEntity},
		// An old client's per-optimization boolean must be refused by
		// name, never accepted and compiled un-ablated.
		{"retired option field", func() error {
			src, _ := json.Marshal(tinySrc)
			resp, err := http.Post(client.BaseURL+"/v1/compile", "application/json",
				strings.NewReader(`{"source":`+string(src)+`,"options":{"availability":false}}`))
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			apiErr := &dhpf.APIError{StatusCode: resp.StatusCode}
			if err := json.NewDecoder(resp.Body).Decode(apiErr); err != nil {
				return err
			}
			if !strings.Contains(apiErr.Message, `unknown field "availability"`) {
				return errors.New("400 does not name the field: " + apiErr.Message)
			}
			return apiErr
		}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		err := tc.call()
		var apiErr *dhpf.APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != tc.status {
			t.Errorf("%s: want HTTP %d, got %v", tc.name, tc.status, err)
		}
	}
}

// TestParseMachine covers the machine-name grammar.
func TestParseMachine(t *testing.T) {
	for _, name := range []string{"", "sp2", "sp2:9"} {
		cfg, err := ParseMachine(name, 9)
		if err != nil {
			t.Errorf("ParseMachine(%q): %v", name, err)
		} else if cfg.Procs != 9 {
			t.Errorf("ParseMachine(%q).Procs = %d", name, cfg.Procs)
		}
	}
	for _, name := range []string{"sp2:8", "sp2:x", "sp2:-1", "cray"} {
		if _, err := ParseMachine(name, 9); err == nil {
			t.Errorf("ParseMachine(%q) should fail", name)
		}
	}
}

// TestVerifyEndpoint: /v1/verify returns the translation validator's
// verdict through the program cache, memoizing the report on the entry.
// Its compile is keyed apart from a default compile (the in-pipeline
// verify pass is disabled so unsafe programs still yield diagnostics).
func TestVerifyEndpoint(t *testing.T) {
	_, client := newTestServer(t, Config{})
	req := dhpf.VerifyRequest{Source: tinySrc}

	cold, err := client.Verify(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Clean || cold.Errors != 0 {
		t.Fatalf("tiny program not clean:\n%s", cold.Text)
	}
	if cold.Stmts == 0 || cold.Ranks != 4 {
		t.Errorf("report missing coverage counters: %+v", cold.VerifyReport)
	}
	if !strings.Contains(cold.Summary, "verify: clean") {
		t.Errorf("summary = %q", cold.Summary)
	}
	if cold.Cached {
		t.Error("first verify reported cached")
	}

	warm, err := client.Verify(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Error("second verify not served from cache")
	}
	if warm.Text != cold.Text || warm.Fingerprint != cold.Fingerprint {
		t.Error("warm verify differs from cold")
	}

	comp, err := client.Compile(context.Background(), dhpf.CompileRequest{Source: tinySrc})
	if err != nil {
		t.Fatal(err)
	}
	if comp.Fingerprint == cold.Fingerprint {
		t.Error("verify compile shares the default compile's cache key")
	}
}

// TestAnalyzeEndpoint: /v1/analyze returns the static-analysis report
// with the cost oracle's prediction, memoizes it on the cache entry,
// and — unlike verify, whose compile must disable the in-pipeline pass —
// shares its fingerprint with a plain compile of the same triple.
func TestAnalyzeEndpoint(t *testing.T) {
	_, client := newTestServer(t, Config{})
	req := dhpf.AnalyzeRequest{Source: tinySrc}

	cold, err := client.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Clean || cold.Errors != 0 {
		t.Fatalf("tiny program not clean:\n%s", cold.Text)
	}
	if cold.Procs != 1 || cold.Phases == 0 {
		t.Errorf("report missing summaries: procs=%d phases=%d", cold.Procs, cold.Phases)
	}
	if cold.Cost == nil || !cold.Cost.Exact || cold.Cost.TotalFlops() == 0 {
		t.Errorf("report missing exact cost prediction: %+v", cold.Cost)
	}
	if !strings.Contains(cold.Summary, "analyze:") {
		t.Errorf("summary = %q", cold.Summary)
	}
	if cold.Cached {
		t.Error("first analyze reported cached")
	}

	warm, err := client.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Error("second analyze not served from cache")
	}
	if warm.Text != cold.Text || warm.Fingerprint != cold.Fingerprint {
		t.Error("warm analyze differs from cold")
	}

	comp, err := client.Compile(context.Background(), dhpf.CompileRequest{Source: tinySrc})
	if err != nil {
		t.Fatal(err)
	}
	if comp.Fingerprint != cold.Fingerprint {
		t.Error("analyze compile does not share the default compile's cache key")
	}
	if !comp.Cached {
		t.Error("compile after analyze missed the shared cache entry")
	}
}

// editSPMod makes the canonical warm edit to an SPModSource program: a
// one-constant change inside the add procedure.
func editSPMod(t *testing.T, src string) string {
	t.Helper()
	edited := strings.Replace(src, " + 0.1*(rhs(1", " + 0.105*(rhs(1", 1)
	if edited == src {
		t.Fatal("warm-edit marker not found in SPModSource output")
	}
	return edited
}

// TestBatchCompileWarmEdit: a batch whose second member is a one-procedure
// edit of the first shares the unchanged procedures' artifacts, a broken
// member fails in place without failing its siblings, and every produced
// report is byte-identical to a direct library compile.
func TestBatchCompileWarmEdit(t *testing.T) {
	srv, client := newTestServer(t, Config{})
	base := nas.SPModSource(12, 1, 2, 2)
	edited := editSPMod(t, base)

	resp, err := client.CompileBatch(context.Background(), dhpf.BatchCompileRequest{
		Requests: []dhpf.CompileRequest{
			{Source: base, Ranks: []int{0}},
			{Source: edited, Ranks: []int{0}},
			{Source: "program broken\nsubroutine main()\n  this is not hpf\nend\n"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(resp.Results))
	}
	if resp.Results[0].Error != "" || resp.Results[0].Response == nil {
		t.Fatalf("base member failed: %s", resp.Results[0].Error)
	}
	if resp.Results[1].Error != "" || resp.Results[1].Response == nil {
		t.Fatalf("edited member failed: %s", resp.Results[1].Error)
	}
	if resp.Results[2].Error == "" || resp.Results[2].Response != nil {
		t.Error("broken member did not report its error in place")
	}
	if resp.Results[0].Response.Fingerprint == resp.Results[1].Response.Fingerprint {
		t.Error("distinct sources share a fingerprint")
	}

	// Byte-identical to direct library compiles of the same sources.
	for i, src := range []string{base, edited} {
		prog, err := dhpf.Compile(src, nil, dhpf.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if resp.Results[i].Response.Report != prog.Report() {
			t.Errorf("member %d report differs from library compile", i)
		}
		if resp.Results[i].Response.NodePrograms[0] != prog.NodeProgram(0) {
			t.Errorf("member %d node program differs from library compile", i)
		}
	}

	// The edited member reused the unchanged procedures' artifacts.
	as := srv.Stats().Artifacts
	if as.Hits == 0 {
		t.Error("warm-edit batch member thawed no artifacts")
	}
	if as.Dirty == 0 {
		t.Error("warm-edit batch member recomputed nothing (edit not seen)")
	}
}

// TestStatsReportsArtifactTier: /v1/stats carries the artifact store's
// counters over the wire.
func TestStatsReportsArtifactTier(t *testing.T) {
	_, client := newTestServer(t, Config{})
	src := nas.SPModSource(12, 1, 2, 2)
	if _, err := client.Compile(context.Background(), dhpf.CompileRequest{Source: src, Ranks: []int{0}}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Compile(context.Background(), dhpf.CompileRequest{Source: editSPMod(t, src), Ranks: []int{0}}); err != nil {
		t.Fatal(err)
	}
	stats, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	a := stats.Artifacts
	if a.Hits == 0 || a.Entries == 0 || a.SizeBytes == 0 {
		t.Errorf("artifact tier counters missing from /v1/stats: %+v", a)
	}
	if a.Misses == 0 {
		t.Errorf("cold compile reported no artifact misses: %+v", a)
	}
	if a.MaxBytes != 64<<20 {
		t.Errorf("default artifact budget = %d, want %d", a.MaxBytes, 64<<20)
	}
}

// TestCachedHitReportsNoPassWork: a program-cache hit did no pass work,
// so its pass stats must say "cached" (zero wall) rather than replaying
// the original compile's timings — on /v1/compile and /v1/explain both.
func TestCachedHitReportsNoPassWork(t *testing.T) {
	_, client := newTestServer(t, Config{})
	req := dhpf.CompileRequest{Source: tinySrc}

	cold, err := client.Compile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	var sawWork bool
	for _, ps := range cold.PassStats {
		if ps.Cached {
			t.Errorf("cold compile marked pass %s cached", ps.Name)
		}
		if ps.WallNS > 0 {
			sawWork = true
		}
	}
	if !sawWork {
		t.Error("cold compile reported zero wall time for every pass")
	}

	warm, err := client.Compile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Fatal("second compile not served from cache")
	}
	if len(warm.PassStats) != len(cold.PassStats) {
		t.Fatalf("warm pass stats count %d != cold %d", len(warm.PassStats), len(cold.PassStats))
	}
	for _, ps := range warm.PassStats {
		if !ps.Cached {
			t.Errorf("cache hit pass %s not marked cached", ps.Name)
		}
		if ps.WallNS != 0 {
			t.Errorf("cache hit pass %s reports %dns of synthesized work", ps.Name, ps.WallNS)
		}
	}

	expl, err := client.Explain(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !expl.Cached {
		t.Fatal("explain after compile not served from cache")
	}
	if !strings.Contains(expl.Table, "cached") {
		t.Error("explain table on a cache hit does not label passes cached")
	}
	for _, ps := range expl.PassStats {
		if !ps.Cached || ps.WallNS != 0 {
			t.Errorf("explain cache hit pass %s: cached=%v wall=%d", ps.Name, ps.Cached, ps.WallNS)
		}
	}
}
