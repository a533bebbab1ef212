package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"dhpf"
	"dhpf/internal/nas"
	"dhpf/internal/store"
)

func openStoreT(t *testing.T, path string) *store.Store {
	t.Helper()
	st, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestRestartWarmByteIdentical: a store-backed server, restarted (new
// Server over a reopened journal), serves a previously compiled
// fingerprint from disk — zero compiles, Cached, and a response
// byte-identical to the pre-restart warm hit, including /v1/explain's
// full relabelled pass table.
func TestRestartWarmByteIdentical(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dhpfd.store")
	src := nas.SPSource(12, 1, 2, 2)
	req := dhpf.CompileRequest{Source: src}
	ctx := context.Background()

	st := openStoreT(t, path)
	_, client := newTestServer(t, Config{Store: st})
	if _, err := client.Compile(ctx, req); err != nil {
		t.Fatalf("priming compile: %v", err)
	}
	warm, err := client.Compile(ctx, req) // in-memory warm hit: the reference response
	if err != nil {
		t.Fatal(err)
	}
	explain, err := client.Explain(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": fresh server, fresh in-memory tiers, reopened journal.
	st2 := openStoreT(t, path)
	srv2, client2 := newTestServer(t, Config{Store: st2})
	warm2, err := client2.Compile(ctx, req)
	if err != nil {
		t.Fatalf("restart-warm compile: %v", err)
	}
	if !warm2.Cached {
		t.Error("restart-warm compile not served as cached")
	}
	if n := srv2.compiles.Load(); n != 0 {
		t.Errorf("restart-warm compile did %d compiles, want 0", n)
	}
	if got, want := mustJSON(t, warm2), mustJSON(t, warm); got != want {
		t.Errorf("restart-warm response differs from pre-restart warm hit:\n got %s\nwant %s", got, want)
	}
	explain2, err := client2.Explain(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustJSON(t, explain2), mustJSON(t, explain); got != want {
		t.Errorf("restart-warm explain differs:\n got %s\nwant %s", got, want)
	}
	stats := srv2.Stats()
	if stats.Cache.BackingHits == 0 {
		t.Errorf("no program thawed from the store: %+v", stats.Cache)
	}
	if stats.Store == nil || stats.Store.ProgramHits == 0 {
		t.Errorf("store stats missing program hit: %+v", stats.Store)
	}
}

// TestRestartWarmVerifyAndRun: the memoized verify report survives a
// restart (served with zero compiles), and /v1/run on a thawed entry
// revives the program and reproduces the pre-restart execution exactly.
// BT12 at grain 1 is a wavefront whose strip comm chose (Event.Strip):
// a revival that lost the choice would strip it differently.
func TestRestartWarmVerifyAndRun(t *testing.T) {
	for _, c := range []struct {
		name, src string
		opt       *dhpf.RequestOptions
		arrays    []string
	}{
		{"sp12", nas.SPSource(12, 1, 2, 2), nil, []string{"u"}},
		{"bt12-g1", nas.BTSource(12, 1, 2, 2), &dhpf.RequestOptions{PipelineGrain: 1}, []string{"r"}},
	} {
		t.Run(c.name, func(t *testing.T) { restartWarmVerifyAndRun(t, c.src, c.opt, c.arrays) })
	}
}

func restartWarmVerifyAndRun(t *testing.T, src string, opt *dhpf.RequestOptions, arrays []string) {
	path := filepath.Join(t.TempDir(), "dhpfd.store")
	ctx := context.Background()

	st := openStoreT(t, path)
	_, client := newTestServer(t, Config{Store: st})
	verify, err := client.Verify(ctx, dhpf.VerifyRequest{Source: src, Options: opt})
	if err != nil {
		t.Fatal(err)
	}
	run, err := client.Run(ctx, dhpf.RunRequest{Source: src, Options: opt, Arrays: arrays})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStoreT(t, path)
	srv2, client2 := newTestServer(t, Config{Store: st2})
	verify2, err := client2.Verify(ctx, dhpf.VerifyRequest{Source: src, Options: opt})
	if err != nil {
		t.Fatal(err)
	}
	if !verify2.Cached {
		t.Error("restart-warm verify not served as cached")
	}
	if n := srv2.compiles.Load(); n != 0 {
		t.Errorf("restart-warm verify did %d compiles, want 0", n)
	}
	verify.Cached = verify2.Cached // only the cache flag may differ
	if got, want := mustJSON(t, verify2), mustJSON(t, verify); got != want {
		t.Errorf("restart-warm verify differs:\n got %s\nwant %s", got, want)
	}

	run2, err := client2.Run(ctx, dhpf.RunRequest{Source: src, Options: opt, Arrays: arrays})
	if err != nil {
		t.Fatal(err)
	}
	if n := srv2.compiles.Load(); n != 1 {
		t.Errorf("run on a thawed entry did %d compiles, want exactly 1 (the revival)", n)
	}
	run.Cached = run2.Cached
	if got, want := mustJSON(t, run2), mustJSON(t, run); got != want {
		t.Errorf("restart-warm run differs:\n got %s\nwant %s", got, want)
	}
	// The revival compiled through the persisted artifact tier: every
	// procedure's analyses thawed rather than recomputed.
	if as := srv2.Stats().Artifacts; as.BackingHits == 0 {
		t.Errorf("revival did not thaw artifacts from the store: %+v", as)
	}
}

// TestRestartWarmAnalyze: the memoized static-analysis report is
// persisted next to the program entry and survives a restart — the
// repeat /v1/analyze is answered from disk with zero compiles and a
// byte-identical report (including the cost prediction).
func TestRestartWarmAnalyze(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dhpfd.store")
	src := nas.SPSource(12, 1, 2, 2)
	ctx := context.Background()

	st := openStoreT(t, path)
	_, client := newTestServer(t, Config{Store: st})
	first, err := client.Analyze(ctx, dhpf.AnalyzeRequest{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cost == nil || !first.Cost.Exact {
		t.Fatalf("SP analyze missing exact cost: %+v", first.Cost)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStoreT(t, path)
	srv2, client2 := newTestServer(t, Config{Store: st2})
	second, err := client2.Analyze(ctx, dhpf.AnalyzeRequest{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("restart-warm analyze not served as cached")
	}
	if n := srv2.compiles.Load(); n != 0 {
		t.Errorf("restart-warm analyze did %d compiles, want 0", n)
	}
	first.Cached = second.Cached // only the cache flag may differ
	if got, want := mustJSON(t, second), mustJSON(t, first); got != want {
		t.Errorf("restart-warm analyze differs:\n got %s\nwant %s", got, want)
	}
}

// TestRestartWarmTune: a completed tune leaderboard is persisted by
// request fingerprint, so a restarted server answers the identical
// /v1/tune request from disk — same ranked entries, same winner (with
// its backend), no search re-run — and the recall is visible in the
// trail and the store counters.
func TestRestartWarmTune(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dhpfd.store")
	req := dhpf.TuneRequest{
		Source: nas.SPSource(12, 1, 2, 2),
		TuneOptions: dhpf.TuneOptions{
			Bench: "sp", N: 12, Steps: 1, Procs: 4,
			Grids:       [][2]int{{2, 2}},
			Grains:      []int{8},
			Backends:    []string{"mp", "shm"},
			NoTranspose: true,
			TopK:        2,
		},
	}
	ctx := context.Background()

	st := openStoreT(t, path)
	srv, client := newTestServer(t, Config{Store: st})
	first, err := client.Tune(ctx, req)
	if err != nil {
		t.Fatalf("priming tune: %v", err)
	}
	if first.Winner == nil || first.Winner.Backend != "shm" {
		t.Fatalf("backend search should crown the shm candidate: %+v", first.Winner)
	}
	if ss := srv.Stats().Store; ss == nil || ss.TuneWrites != 1 {
		t.Fatalf("completed leaderboard not persisted: %+v", ss)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStoreT(t, path)
	srv2, client2 := newTestServer(t, Config{Store: st2})
	warm, err := client2.Tune(ctx, req)
	if err != nil {
		t.Fatalf("restart-warm tune: %v", err)
	}
	if n := len(warm.Trail); n == 0 || warm.Trail[n-1] != "leaderboard recalled from durable store" {
		t.Fatalf("warm tune trail does not mark the recall: %v", warm.Trail)
	}
	// Everything except the appended recall line must be byte-identical
	// to the original run — including wall-time counters, which are the
	// *original* search's effort, not a re-run's.
	warm.Trail = warm.Trail[:len(warm.Trail)-1]
	if got, want := mustJSON(t, warm), mustJSON(t, first); got != want {
		t.Errorf("restart-warm tune differs:\n got %s\nwant %s", got, want)
	}
	ss := srv2.Stats().Store
	if ss == nil || ss.TuneHits != 1 || ss.TuneWrites != 0 {
		t.Errorf("warm tune should be one store recall and no write: %+v", ss)
	}
	if n := srv2.compiles.Load(); n != 0 {
		t.Errorf("warm tune did %d compiles, want 0", n)
	}

	// A different spec is a different fingerprint: it must miss and run.
	req2 := req
	req2.TopK = 1
	if _, err := client2.Tune(ctx, req2); err != nil {
		t.Fatalf("modified tune: %v", err)
	}
	if ss := srv2.Stats().Store; ss.TuneMisses == 0 || ss.TuneWrites != 1 {
		t.Errorf("modified spec should miss and persist: %+v", ss)
	}
}

// fleetT starts n servers that know each other as peers, each with its
// own store, and returns them with their clients and base URLs.
func fleetT(t *testing.T, n int) ([]*Server, []*dhpf.Client, []string) {
	t.Helper()
	srvs := make([]*Server, n)
	peers := make([]string, n)
	for i := range peers {
		i := i
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			srvs[i].Handler().ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		peers[i] = ts.URL
	}
	clients := make([]*dhpf.Client, n)
	for i := range srvs {
		st := openStoreT(t, filepath.Join(t.TempDir(), "store"))
		srvs[i] = New(Config{Store: st, Peers: peers, Self: i})
		clients[i] = dhpf.NewClient(peers[i])
	}
	return srvs, clients, peers
}

// TestFleetPeerFetch: in a fleet, a replica that misses on a
// fingerprint another member owns fetches the owner's entry instead of
// compiling — identical response, zero local pass work — and installs
// it durably so its next restart is warm without re-fetching.
func TestFleetPeerFetch(t *testing.T) {
	srvs, clients, peers := fleetT(t, 3)
	src := nas.SPSource(12, 1, 2, 2)
	req := dhpf.CompileRequest{Source: src}
	ctx := context.Background()

	fp := dhpf.Fingerprint(src, nil, dhpf.DefaultOptions())
	owner := Owner(peers, fp)
	replica := (owner + 1) % len(peers)

	if primed, err := clients[owner].Compile(ctx, req); err != nil {
		t.Fatalf("priming the owner: %v", err)
	} else if primed.Fingerprint != fp {
		t.Fatalf("client-side fingerprint %s != server's %s", fp, primed.Fingerprint)
	}
	// The owner's own warm hit is the reference response: cache-form pass
	// stats, like anything served without pass work.
	ref, err := clients[owner].Compile(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	got, err := clients[replica].Compile(ctx, req)
	if err != nil {
		t.Fatalf("replica compile: %v", err)
	}
	if !got.Cached {
		t.Error("replica compile not served as cached")
	}
	if n := srvs[replica].compiles.Load(); n != 0 {
		t.Errorf("replica did %d compiles, want 0 (peer fetch)", n)
	}
	if mustJSON(t, got) != mustJSON(t, ref) {
		t.Error("replica response differs from the owner's")
	}

	rs := srvs[replica].Stats()
	if rs.Peer == nil || rs.Peer.Hits == 0 {
		t.Errorf("replica shows no peer hits: %+v", rs.Peer)
	}
	os := srvs[owner].Stats()
	if os.Peer == nil || os.Peer.Served == 0 {
		t.Errorf("owner shows no served fetches: %+v", os.Peer)
	}
	// The fetched entry became durable locally.
	if rs.Store == nil || rs.Store.ProgramWrites == 0 && rs.Store.ManifestPuts == 0 {
		t.Errorf("replica did not persist the fetched entry: %+v", rs.Store)
	}
}

// TestPeerFetchNeverCompiles: a fetch for an unknown fingerprint is a
// clean miss — the receiver must not compile on another replica's
// behalf (that would cascade cold misses across the fleet).
func TestPeerFetchNeverCompiles(t *testing.T) {
	srv, client := newTestServer(t, Config{Store: openStoreT(t, filepath.Join(t.TempDir(), "store"))})
	resp, err := client.PeerFetch(context.Background(), dhpf.PeerFetchRequest{Fingerprint: "no-such-fp"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Found || resp.Entry != nil {
		t.Errorf("phantom entry: %+v", resp)
	}
	if n := srv.compiles.Load(); n != 0 {
		t.Errorf("peer fetch compiled (%d)", n)
	}
}

// TestRingDeterministicAndBalanced: every member computes the same
// owner for every key, and ownership over many keys is roughly uniform.
func TestRingDeterministicAndBalanced(t *testing.T) {
	peers := []string{"http://a:1", "http://b:2", "http://c:3"}
	r1, r2 := newHashRing(peers), newHashRing(peers)
	counts := make([]int, len(peers))
	const keys = 3000
	for i := 0; i < keys; i++ {
		key := nas.SPSource(12, 1, 2, 2) + string(rune(i))
		o := r1.owner(key)
		if o != r2.owner(key) {
			t.Fatalf("rings disagree on key %d", i)
		}
		if o != Owner(peers, key) {
			t.Fatalf("Owner disagrees with ring on key %d", i)
		}
		counts[o]++
	}
	for i, c := range counts {
		if c < keys/len(peers)/2 || c > keys*2/len(peers) {
			t.Errorf("peer %d owns %d of %d keys (skewed ring): %v", i, c, keys, counts)
		}
	}
	if Owner(nil, "x") != -1 {
		t.Error("empty fleet should have no owner")
	}
}

// TestSelfOutOfRangeDisablesFleet: a misconfigured Self must not wedge
// the server into fetching from itself; the fleet tier shuts off.
func TestSelfOutOfRangeDisablesFleet(t *testing.T) {
	srv := New(Config{Peers: []string{"http://a:1", "http://b:2"}, Self: 7})
	if srv.durable != nil && srv.durable.ring != nil {
		t.Error("out-of-range Self left the ring enabled")
	}
	if srv.Stats().Peer != nil {
		t.Error("stats advertise a disabled fleet")
	}
}
