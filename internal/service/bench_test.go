package service

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"dhpf"
	"dhpf/internal/nas"
	"dhpf/internal/store"
)

// BenchmarkServiceWarmVsCold measures /v1/compile latency on the SP
// source cold (unique cache key every time) and warm (same key,
// cache-hit path), through the full HTTP round trip.  The reported
// cold_vs_warm_x metric is the paper-scale payoff of the program cache:
// a warm hit skips the whole pass pipeline and costs only routing +
// rendering (expected ≥ 10×).
func BenchmarkServiceWarmVsCold(b *testing.B) {
	srv := New(Config{Workers: 2, QueueDepth: 256, CacheBytes: 512 << 20, RequestTimeout: time.Minute})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := dhpf.NewClient(ts.URL)
	src := nas.SPSource(16, 1, 2, 2)
	ctx := context.Background()

	// Prime the warm entry once.
	warmReq := dhpf.CompileRequest{Source: src, Ranks: []int{0}}
	if _, err := client.Compile(ctx, warmReq); err != nil {
		b.Fatal(err)
	}

	var coldNS, warmNS int64
	seq := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coldReq := warmReq
		coldReq.Params = map[string]int{"SEED": seq} // unique key ⇒ cache miss
		seq++
		t0 := time.Now()
		if _, err := client.Compile(ctx, coldReq); err != nil {
			b.Fatal(err)
		}
		coldNS += time.Since(t0).Nanoseconds()

		t0 = time.Now()
		resp, err := client.Compile(ctx, warmReq)
		if err != nil {
			b.Fatal(err)
		}
		warmNS += time.Since(t0).Nanoseconds()
		if !resp.Cached {
			b.Fatal("warm request missed the cache")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(coldNS)/float64(b.N), "cold_ns/op")
	b.ReportMetric(float64(warmNS)/float64(b.N), "warm_ns/op")
	b.ReportMetric(float64(coldNS)/float64(warmNS), "cold_vs_warm_x")
}

// BenchmarkRestartWarmCompile measures the restart-warm path: a server
// whose program store was populated by a previous process serves its
// first request for a known fingerprint from disk.  Each iteration
// builds a fresh Server (empty in-memory tiers — the restart) over the
// same open store and times one compileOne call, which must be a
// cached, zero-pass-work hit.
func BenchmarkRestartWarmCompile(b *testing.B) {
	st, err := store.Open(filepath.Join(b.TempDir(), "dhpfd.store"), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	src := nas.SPSource(12, 1, 2, 2)
	req := dhpf.CompileRequest{Source: src, Ranks: []int{0}}
	ctx := context.Background()
	if _, err := New(Config{Store: st}).compileOne(ctx, req); err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		srv := New(Config{Store: st}) // the "restarted" process
		b.StartTimer()
		resp, err := srv.compileOne(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		if !resp.Cached {
			b.Fatal("restart-warm request missed the store")
		}
	}
}
