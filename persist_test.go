package dhpf_test

import (
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

// TestIncrementalPersistRestartWarm: an Incremental with a durable
// store, restarted (fresh in-memory tiers over the same journal),
// recompiles a previously-seen program with zero dirty procedures —
// every frozen artifact thaws from disk — and byte-identical output.
func TestIncrementalPersistRestartWarm(t *testing.T) {
	path := filepath.Join(t.TempDir(), "artifacts.journal")
	src := nas.SPModSource(12, 1, 2, 2)
	opt := dhpf.DefaultOptions()

	st := openStoreT(t, path)
	inc := dhpf.NewIncremental(0)
	inc.Persist(st)
	cold, _, err := inc.Compile(src, nil, opt)
	if err != nil {
		t.Fatalf("priming compile: %v", err)
	}
	coldVerify, err := cold.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh store handle over the same journal and a fresh
	// Incremental with empty in-memory tiers.
	st2 := openStoreT(t, path)
	inc2 := dhpf.NewIncremental(0)
	inc2.Persist(st2)
	warm, delta, err := inc2.Compile(src, nil, opt)
	if err != nil {
		t.Fatalf("restart-warm compile: %v", err)
	}

	if delta.Dirty != 0 {
		t.Errorf("restart-warm recompile dirtied %d procs (%v), want 0", delta.Dirty, delta.DirtyProcs)
	}
	stats := inc2.ArtifactStats()
	if stats.BackingHits == 0 {
		t.Errorf("no artifacts thawed from the durable store: %+v", stats)
	}
	if warm.Report() != cold.Report() {
		t.Error("restart-warm report differs from pre-restart report")
	}
	for rk := 0; rk < cold.Ranks(); rk++ {
		if warm.NodeProgram(rk) != cold.NodeProgram(rk) {
			t.Errorf("rank %d node program differs across restart", rk)
		}
	}
	warmVerify, err := warm.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if warmVerify.Text != coldVerify.Text {
		t.Error("verification output differs across restart")
	}
}

// TestIncrementalPersistWarmEditAcrossRestart: the warm-edit property
// survives a restart — after reopening the store, editing one procedure
// re-analyzes only it and its caller, and output matches a cold compile.
func TestIncrementalPersistWarmEditAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "artifacts.journal")
	base := nas.SPModSource(12, 1, 2, 2)
	opt := dhpf.DefaultOptions()

	st := openStoreT(t, path)
	inc := dhpf.NewIncremental(0)
	inc.Persist(st)
	if _, _, err := inc.Compile(base, nil, opt); err != nil {
		t.Fatalf("priming compile: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStoreT(t, path)
	inc2 := dhpf.NewIncremental(0)
	inc2.Persist(st2)
	edited := editSPMod(t, base)
	warm, delta, err := inc2.Compile(edited, nil, opt)
	if err != nil {
		t.Fatalf("warm-edit compile: %v", err)
	}
	if delta.Dirty != 2 {
		t.Errorf("dirty procs = %d (%v), want exactly [add main]", delta.Dirty, delta.DirtyProcs)
	}
	cold, err := dhpf.Compile(edited, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Report() != cold.Report() {
		t.Error("warm-edit-across-restart report differs from cold")
	}
	if warm.NodeProgram(0) != cold.NodeProgram(0) {
		t.Error("warm-edit-across-restart node program differs from cold")
	}
}

// TestIncrementalPersistSharesChunks: the pipeline grain is part of every
// environment fingerprint but changes no frozen artifact, so recompiling
// under another grain re-keys every artifact without changing its bytes —
// the content-addressed store must write no new chunk, and every chunk
// write dedups.
func TestIncrementalPersistSharesChunks(t *testing.T) {
	st := openStoreT(t, filepath.Join(t.TempDir(), "artifacts.journal"))
	src := nas.SPModSource(12, 1, 2, 2)
	opt := dhpf.DefaultOptions()

	inc := dhpf.NewIncremental(0)
	inc.Persist(st)
	if _, _, err := inc.Compile(src, nil, opt); err != nil {
		t.Fatal(err)
	}
	first := st.Stats()
	if first.ChunkPuts == 0 || first.ManifestPuts == 0 {
		t.Fatalf("priming compile persisted nothing: %+v", first)
	}
	opt.PipelineGrain /= 2
	if _, _, err := inc.Compile(src, nil, opt); err != nil {
		t.Fatal(err)
	}
	second := st.Stats()
	puts, dedups, keys := second.ChunkPuts-first.ChunkPuts, second.DedupHits-first.DedupHits, second.ManifestPuts-first.ManifestPuts
	if keys != first.ManifestPuts || puts != 0 || dedups != keys {
		t.Errorf("recompile under grain %d: %d artifacts re-keyed (want %d), %d new chunks, %d dedup hits (want 0 and %d)",
			opt.PipelineGrain, keys, first.ManifestPuts, puts, dedups, keys)
	}
}
