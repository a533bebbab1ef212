// Command dhpfd serves the dhpf compiler over HTTP/JSON and load-tests
// it.  The server fronts every compilation with a content-addressed
// program cache (identical requests hit or coalesce; see
// internal/cache) and a bounded worker pool with queue backpressure.
//
// Usage:
//
//	dhpfd serve [-addr :8421] [-workers 4] [-queue 64] [-cache-mb 256]
//	            [-artifact-mb 64] [-timeout 60s] [-quiet]
//	            [-store PATH] [-store-mb 1024] [-peers URL,URL,...] [-self N]
//	dhpfd loadgen [-addr http://127.0.0.1:8421] [-requests 200]
//	              [-concurrency 8] [-warm 0.8] [-n 16] [-steps 1] [-json]
//	              [-fleet URL,URL,...] [-min-peer-hits 0]
//
// serve runs until interrupted (SIGINT/SIGTERM), then drains and prints
// its final counters.  With -store the server persists compiled programs
// and per-procedure artifacts to an append-only chunk journal at PATH, so
// a restart serves previously seen fingerprints from disk with zero pass
// work; -store-mb bounds the journal's live bytes (LRU eviction).  With
// -peers (the same list, same order, on every member) the server joins a
// static fleet sharded by consistent hashing: a local miss first asks the
// fingerprint's owning peer before compiling cold.
//
// loadgen drives /v1/compile with a mixed workload: a fraction of
// requests repeat one hot SP configuration (warm) and the rest cycle
// through unique parameter variants (cold), and reports sustained
// throughput and latency for each class — the warm/cold
// compile-throughput experiment of EXPERIMENTS.md.  With -fleet the
// requests round-robin over the replicas: the hot configuration is
// primed at its ring owner, every response is checked for cross-replica
// identity, per-replica throughput is reported, and -min-peer-hits
// fails the run unless the fleet counters show at least that many
// cross-replica warm hits.  With -json the report is a single JSON
// summary object on stdout, for scripting.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"dhpf"
	// The checked-in kernel corpus: RunRequest.Engine="codegen" runs the
	// pre-generated NAS kernels natively.
	_ "dhpf/internal/codegen/gen"
	"dhpf/internal/nas"
	"dhpf/internal/service"
	"dhpf/internal/store"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dhpfd:", err)
		os.Exit(1)
	}
}

// run is main with its environment made explicit so tests can drive the
// daemon end to end; cancelling ctx shuts serve down gracefully.
func run(ctx context.Context, w io.Writer, args []string) error {
	if len(args) < 1 {
		return errors.New("usage: dhpfd serve|loadgen [flags]")
	}
	switch args[0] {
	case "serve":
		return serve(ctx, w, args[1:])
	case "loadgen":
		return loadgen(ctx, w, args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q (want serve or loadgen)", args[0])
	}
}

func serve(ctx context.Context, w io.Writer, args []string) error {
	fs := flag.NewFlagSet("dhpfd serve", flag.ContinueOnError)
	fs.SetOutput(w)
	addr := fs.String("addr", ":8421", "listen address")
	workers := fs.Int("workers", 4, "concurrent compile workers")
	queue := fs.Int("queue", 64, "queued compiles beyond the workers (full queue = 429)")
	cacheMB := fs.Int("cache-mb", 256, "program cache budget in MiB")
	artifactMB := fs.Int("artifact-mb", 64, "per-procedure artifact store budget in MiB")
	timeout := fs.Duration("timeout", 60*time.Second, "per-request compile deadline")
	quiet := fs.Bool("quiet", false, "suppress per-request logs")
	storePath := fs.String("store", "", "durable chunk-store journal path (empty = memory only)")
	storeMB := fs.Int("store-mb", 1024, "durable store live-byte budget in MiB (LRU eviction beyond it)")
	peersFlag := fs.String("peers", "", "comma-separated fleet base URLs, identical on every member")
	self := fs.Int("self", 0, "this server's index in -peers")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var peers []string
	if *peersFlag != "" {
		for _, p := range strings.Split(*peersFlag, ",") {
			peers = append(peers, strings.TrimRight(strings.TrimSpace(p), "/"))
		}
		if *self < 0 || *self >= len(peers) {
			return fmt.Errorf("-self %d is not an index into -peers (%d members)", *self, len(peers))
		}
	}
	var st *store.Store
	if *storePath != "" {
		var err error
		st, err = store.Open(*storePath, store.Options{MaxBytes: int64(*storeMB) << 20})
		if err != nil {
			return fmt.Errorf("opening -store: %w", err)
		}
		defer st.Close()
	}

	logger := slog.New(slog.NewTextHandler(w, nil))
	if *quiet {
		logger = nil
	}
	srv := service.New(service.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheBytes:     int64(*cacheMB) << 20,
		ArtifactBytes:  int64(*artifactMB) << 20,
		RequestTimeout: *timeout,
		Logger:         logger,
		Store:          st,
		Peers:          peers,
		Self:           *self,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	extra := ""
	if st != nil {
		extra += fmt.Sprintf(" store=%s(%dMiB)", *storePath, *storeMB)
	}
	if len(peers) > 0 {
		extra += fmt.Sprintf(" fleet=%d/self=%d", len(peers), *self)
	}
	fmt.Fprintf(w, "dhpfd: listening on http://%s (workers=%d queue=%d cache=%dMiB timeout=%s%s)\n",
		ln.Addr(), *workers, *queue, *cacheMB, *timeout, extra)

	httpSrv := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return err
	}
	stats := srv.Stats()
	fmt.Fprintf(w, "dhpfd: shut down after %d requests (%d compiles, %d cache hits, %d coalesced, %d rejected)\n",
		stats.Server.Requests, stats.Server.Compiles, stats.Cache.Hits, stats.Cache.InflightCoalesced, stats.Server.Rejected)
	if ss := stats.Store; ss != nil {
		fmt.Fprintf(w, "dhpfd: store %d chunks, %d manifests, %d B live (%d program hits, %d writes, %d evictions)\n",
			ss.Chunks, ss.Manifests, ss.LiveBytes, ss.ProgramHits, ss.ProgramWrites, ss.Evictions)
	}
	if ps := stats.Peer; ps != nil {
		fmt.Fprintf(w, "dhpfd: fleet %d peer hits, %d misses, %d errors, %d served\n",
			ps.Hits, ps.Misses, ps.Errors, ps.Served)
	}
	return nil
}

// loadgen measures a served dhpfd instance with a mixed workload.
func loadgen(ctx context.Context, w io.Writer, args []string) error {
	fs := flag.NewFlagSet("dhpfd loadgen", flag.ContinueOnError)
	fs.SetOutput(w)
	addr := fs.String("addr", "http://127.0.0.1:8421", "service base URL")
	requests := fs.Int("requests", 200, "total requests to send")
	concurrency := fs.Int("concurrency", 8, "concurrent client goroutines")
	warmFrac := fs.Float64("warm", 0.8, "fraction of requests repeating the hot configuration")
	n := fs.Int("n", 16, "SP grid size")
	steps := fs.Int("steps", 1, "SP time steps")
	asJSON := fs.Bool("json", false, "print a single JSON summary object instead of text")
	fleet := fs.String("fleet", "", "comma-separated fleet base URLs (overrides -addr; requests round-robin)")
	minPeerHits := fs.Int("min-peer-hits", 0, "fail unless the fleet's peer-hit counters total at least this")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *warmFrac < 0 || *warmFrac > 1 {
		return fmt.Errorf("-warm %g outside [0,1]", *warmFrac)
	}

	peers := []string{*addr}
	if *fleet != "" {
		peers = nil
		for _, p := range strings.Split(*fleet, ",") {
			peers = append(peers, strings.TrimRight(strings.TrimSpace(p), "/"))
		}
	} else if *minPeerHits > 0 {
		return errors.New("-min-peer-hits needs -fleet")
	}
	clients := make([]*dhpf.Client, len(peers))
	for i, p := range peers {
		clients[i] = dhpf.NewClient(p)
	}
	src := nas.SPSource(*n, *steps, 2, 2)
	warmReq := dhpf.CompileRequest{Source: src, Ranks: []int{0}}

	if len(clients) > 1 {
		// Prime the hot configuration at its ring owner, so every other
		// replica's first warm request exercises the peer-fetch path
		// (deterministically — CI gates on the peer-hit counter).
		owner := service.Owner(peers, dhpf.Fingerprint(src, nil, dhpf.DefaultOptions()))
		if _, err := clients[owner].Compile(ctx, warmReq); err != nil {
			return fmt.Errorf("priming the hot configuration at its owner: %w", err)
		}
	}

	type sample struct {
		warm    bool
		replica int
		dur     time.Duration
		err     error
	}

	// identity records one response digest per fingerprint; replicas that
	// disagree on a fingerprint's bytes are a correctness failure, not a
	// performance problem.
	var identityMu sync.Mutex
	identity := map[string]string{}
	mismatches := 0
	digest := func(resp *dhpf.CompileResponse) {
		h := sha256.New()
		io.WriteString(h, resp.Report)
		for rk := 0; rk < resp.Ranks; rk++ {
			io.WriteString(h, resp.NodePrograms[rk])
		}
		d := fmt.Sprintf("%x", h.Sum(nil))
		identityMu.Lock()
		defer identityMu.Unlock()
		if prev, ok := identity[resp.Fingerprint]; ok && prev != d {
			mismatches++
		} else {
			identity[resp.Fingerprint] = d
		}
	}
	jobs := make(chan int)
	samples := make([]sample, *requests)
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < *concurrency; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				req := warmReq
				// Spread the cold fraction evenly across the index
				// space so small runs still mix both classes.
				coldFrac := 1 - *warmFrac
				warm := math.Floor(float64(i+1)*coldFrac) == math.Floor(float64(i)*coldFrac)
				if !warm {
					// Unique params = unique fingerprint = cold compile.
					req.Params = map[string]int{"SEED": i}
				}
				replica := i % len(clients)
				start := time.Now()
				resp, err := clients[replica].Compile(ctx, req)
				samples[i] = sample{warm: warm, replica: replica, dur: time.Since(start), err: err}
				if err == nil {
					digest(resp)
				}
			}
		}()
	}
	for i := 0; i < *requests; i++ {
		select {
		case jobs <- i:
		case <-ctx.Done():
			close(jobs)
			wg.Wait()
			return ctx.Err()
		}
	}
	close(jobs)
	wg.Wait()
	elapsed := time.Since(t0)

	var warmDurs, coldDurs []time.Duration
	errs, rejected := 0, 0
	okByReplica := make([]int, len(clients))
	for _, sm := range samples {
		if sm.err != nil {
			errs++
			var apiErr *dhpf.APIError
			if errors.As(sm.err, &apiErr) && apiErr.StatusCode == http.StatusTooManyRequests {
				rejected++
			}
			continue
		}
		okByReplica[sm.replica]++
		if sm.warm {
			warmDurs = append(warmDurs, sm.dur)
		} else {
			coldDurs = append(coldDurs, sm.dur)
		}
	}
	ok := *requests - errs
	// Snapshot every cache tier after the run: the program cache (with
	// its backing-hit split: how many misses the durable/peer tier
	// absorbed), the per-procedure artifact tier, and — when the server
	// has a store — the durable tier itself.
	var cacheStats *dhpf.CacheStats
	var artifacts *dhpf.ArtifactCacheStats
	var storeStats *dhpf.StoreStats
	if st, err := clients[0].Stats(ctx); err == nil {
		cacheStats = &st.Cache
		artifacts = &st.Artifacts
		storeStats = st.Store
	}
	sum := loadgenSummary{
		Requests:     *requests,
		OK:           ok,
		Errors:       errs,
		Rejected429:  rejected,
		Mismatches:   mismatches,
		Concurrency:  *concurrency,
		WarmFraction: *warmFrac,
		ElapsedNS:    elapsed.Nanoseconds(),
		Throughput:   float64(ok) / elapsed.Seconds(),
		Warm:         summarize(warmDurs),
		Cold:         summarize(coldDurs),
		Cache:        cacheStats,
		Artifacts:    artifacts,
		Store:        storeStats,
	}
	if len(clients) > 1 {
		for i, c := range clients {
			rs := replicaSummary{
				URL:        peers[i],
				OK:         okByReplica[i],
				Throughput: float64(okByReplica[i]) / elapsed.Seconds(),
			}
			if st, err := c.Stats(ctx); err == nil {
				rs.CacheHits = st.Cache.Hits
				rs.CacheBackingHits = st.Cache.BackingHits
				rs.ArtifactBackingHits = st.Artifacts.BackingHits
				if st.Store != nil {
					rs.StoreProgramHits = st.Store.ProgramHits
				}
				if st.Peer != nil {
					rs.PeerHits = st.Peer.Hits
					rs.PeerServed = st.Peer.Served
					sum.PeerHits += st.Peer.Hits
				}
			}
			sum.Fleet = append(sum.Fleet, rs)
		}
	}
	// gateErr fails the run after the report is printed, so the numbers
	// that explain the failure are always visible.
	var gateErr error
	if mismatches > 0 {
		gateErr = fmt.Errorf("%d responses differed across replicas for the same fingerprint", mismatches)
	} else if *minPeerHits > 0 && sum.PeerHits < int64(*minPeerHits) {
		gateErr = fmt.Errorf("fleet shows %d peer hits, want at least %d", sum.PeerHits, *minPeerHits)
	}
	if *asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			return err
		}
		return gateErr
	}
	fmt.Fprintf(w, "loadgen: %d requests (%d ok, %d errors, %d rejected 429) in %.3fs\n",
		sum.Requests, sum.OK, sum.Errors, sum.Rejected429, elapsed.Seconds())
	fmt.Fprintf(w, "throughput: %.1f req/s sustained at concurrency %d (warm fraction %.0f%%)\n",
		sum.Throughput, sum.Concurrency, sum.WarmFraction*100)
	report := func(label string, ls latencySummary) {
		if ls.Requests == 0 {
			fmt.Fprintf(w, "%-5s 0 requests\n", label)
			return
		}
		ns := func(v int64) string { return time.Duration(v).Round(time.Microsecond).String() }
		fmt.Fprintf(w, "%-5s %5d requests  mean %-10s p50 %-10s p95 %-10s max %s\n",
			label, ls.Requests, ns(ls.MeanNS), ns(ls.P50NS), ns(ls.P95NS), ns(ls.MaxNS))
	}
	report("warm", sum.Warm)
	report("cold", sum.Cold)
	if c := sum.Cache; c != nil {
		fmt.Fprintf(w, "cache: %d hits, %d misses (%d absorbed by backing tier), %d coalesced\n",
			c.Hits, c.Misses, c.BackingHits, c.InflightCoalesced)
	}
	if a := sum.Artifacts; a != nil {
		fmt.Fprintf(w, "artifacts: %d hits (%d thawed from store), %d misses, %d dirty recomputes, %d entries (%d B)\n",
			a.Hits, a.BackingHits, a.Misses, a.Dirty, a.Entries, a.SizeBytes)
	}
	if st := sum.Store; st != nil {
		fmt.Fprintf(w, "store: %d program hits, %d misses, %d writes (%d chunks, %d B live)\n",
			st.ProgramHits, st.ProgramMisses, st.ProgramWrites, st.Chunks, st.LiveBytes)
	}
	for _, rs := range sum.Fleet {
		fmt.Fprintf(w, "replica %-28s %5d ok  %7.1f req/s  %d cache hits (%d backing), %d peer hits, %d served\n",
			rs.URL, rs.OK, rs.Throughput, rs.CacheHits, rs.CacheBackingHits, rs.PeerHits, rs.PeerServed)
	}
	if len(sum.Fleet) > 0 {
		fmt.Fprintf(w, "fleet: %d cross-replica warm hits, %d response mismatches\n", sum.PeerHits, sum.Mismatches)
	}
	return gateErr
}

// loadgenSummary is the -json report: one object, nanosecond latencies,
// so a script can diff throughput across configurations without parsing
// the human table.
type loadgenSummary struct {
	Requests     int            `json:"requests"`
	OK           int            `json:"ok"`
	Errors       int            `json:"errors"`
	Rejected429  int            `json:"rejected_429"`
	Concurrency  int            `json:"concurrency"`
	WarmFraction float64        `json:"warm_fraction"`
	ElapsedNS    int64          `json:"elapsed_ns"`
	Throughput   float64        `json:"throughput_rps"`
	Warm         latencySummary `json:"warm"`
	Cold         latencySummary `json:"cold"`
	// Cache is the program cache's counter snapshot after the run; its
	// BackingHits field says how many misses were absorbed by the
	// durable/peer tier rather than compiled cold.  Artifacts is the
	// per-procedure artifact tier (same BackingHits split for thawed
	// analyses), and Store — present only on store-backed servers — is
	// the durable tier itself.  Together they attribute every warm
	// request to the tier that served it.  (All nil when /v1/stats was
	// unreachable.)
	Cache     *dhpf.CacheStats         `json:"cache,omitempty"`
	Artifacts *dhpf.ArtifactCacheStats `json:"artifacts,omitempty"`
	Store     *dhpf.StoreStats         `json:"store,omitempty"`
	// Fleet is the per-replica breakdown (only with -fleet); PeerHits is
	// the fleet-wide cross-replica warm-hit total and Mismatches counts
	// same-fingerprint responses that differed between replicas (always
	// zero on a correct fleet).
	Fleet      []replicaSummary `json:"fleet,omitempty"`
	PeerHits   int64            `json:"peer_hits,omitempty"`
	Mismatches int              `json:"mismatches,omitempty"`
}

type replicaSummary struct {
	URL        string  `json:"url"`
	OK         int     `json:"ok"`
	Throughput float64 `json:"throughput_rps"`
	PeerHits   int64   `json:"peer_hits"`
	PeerServed int64   `json:"peer_served"`
	// Per-tier hit provenance: in-memory program-cache hits, misses the
	// replica's backing tier (store or peer) absorbed, per-procedure
	// artifacts thawed from disk, and whole programs thawed from the
	// local store — so a fleet smoke test can assert not just *that*
	// requests were warm but *which tier* made them warm.
	CacheHits           int64 `json:"cache_hits"`
	CacheBackingHits    int64 `json:"cache_backing_hits"`
	ArtifactBackingHits int64 `json:"artifact_backing_hits"`
	StoreProgramHits    int64 `json:"store_program_hits,omitempty"`
}

type latencySummary struct {
	Requests int   `json:"requests"`
	MeanNS   int64 `json:"mean_ns"`
	P50NS    int64 `json:"p50_ns"`
	P95NS    int64 `json:"p95_ns"`
	MaxNS    int64 `json:"max_ns"`
}

func summarize(durs []time.Duration) latencySummary {
	if len(durs) == 0 {
		return latencySummary{}
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	var total time.Duration
	for _, d := range durs {
		total += d
	}
	q := func(p float64) int64 {
		return durs[min(int(p*float64(len(durs))), len(durs)-1)].Nanoseconds()
	}
	return latencySummary{
		Requests: len(durs),
		MeanNS:   (total / time.Duration(len(durs))).Nanoseconds(),
		P50NS:    q(0.50),
		P95NS:    q(0.95),
		MaxNS:    durs[len(durs)-1].Nanoseconds(),
	}
}
