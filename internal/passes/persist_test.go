package passes

import (
	"path/filepath"
	"reflect"
	"testing"

	"dhpf/internal/comm"
	"dhpf/internal/cp"
	"dhpf/internal/ir"
	"dhpf/internal/store"
	"dhpf/internal/store/codec"
	"dhpf/internal/verify"
)

func sampleCP() *cp.CP {
	return &cp.CP{Terms: []cp.Term{
		{Array: "a", Subs: []cp.HomeSub{
			{Var: "i", Coef: 1, Off: ir.AffExpr{Const: -1, Terms: []ir.AffTerm{{Name: "n", Coef: 2}}}},
			{IsRange: true, Lo: ir.AffExpr{Const: 1}, Hi: ir.AffExpr{Const: 0, Terms: []ir.AffTerm{{Name: "n", Coef: 1}}}},
		}},
		{Array: "b", Subs: []cp.HomeSub{{Var: "j", Coef: -3, Off: ir.AffExpr{Const: 7}}}},
	}}
}

// roundTrip pushes one artifact value through encode+decode and returns
// the decoded value; it fails the test on any refusal.
func roundTrip(t *testing.T, kind string, val any) any {
	t.Helper()
	data, ok := encodeArtifact(kind, val)
	if !ok {
		t.Fatalf("encodeArtifact(%s) refused", kind)
	}
	out, ok := decodeArtifact(kind, data)
	if !ok {
		t.Fatalf("decodeArtifact(%s) refused", kind)
	}
	return out
}

func TestArtifactCodecRoundTrip(t *testing.T) {
	sel := &frozenSel{
		Sel: &cp.ProcSelection{
			CPs:      map[int]*cp.CP{4: sampleCP(), 9: nil, 11: {}},
			Entry:    sampleCP(),
			HasEntry: true,
			Marked:   [][2]int{{4, 9}, {9, 11}},
			Notes: []cp.ProcNote{
				{Late: 1, Entry: 2, Top: 3, Phase: 4, Loop: 5, Sub: 6, Text: "note about stmt 4"},
				{Text: ""},
			},
		},
		OldIDs: []int{1, 4, 9, 11, 15},
	}
	if got := roundTrip(t, artifactSel, sel); !reflect.DeepEqual(got, sel) {
		t.Errorf("sel round trip:\n got %+v\nwant %+v", got, sel)
	}

	cm := &frozenComm{
		Events: []frozenEvent{
			{Kind: comm.ReadComm, Stmt: 2, Ref: refSel{Kind: selRHS, Idx: 1}, Depth: 1, Pipelined: true},
			{Kind: comm.WriteBack, Stmt: 7, Ref: refSel{Kind: selLHS}, Eliminated: true, Reason: "covered by stmt 2"},
		},
		Notes:  []string{"availability: 3 reads covered", ""},
		OldIDs: []int{0, 2, 7},
	}
	if got := roundTrip(t, artifactComm, cm); !reflect.DeepEqual(got, cm) {
		t.Errorf("comm round trip:\n got %+v\nwant %+v", got, cm)
	}

	vf := &frozenVerify{
		Diagnostics: []verify.Diagnostic{
			{Check: "on-home", Severity: verify.Info, Proc: "main", Stmt: 3, Ref: "a(i,j)", Set: "[1:n]", Why: "covered"},
			{Check: "comm", Severity: "error", Proc: "sweep", Stmt: -1, Why: "missing halo"},
		},
		Stmts: 12, Events: 4, Ranks: 4,
		OldIDs: []int{3, 8},
	}
	if got := roundTrip(t, artifactVerify, vf); !reflect.DeepEqual(got, vf) {
		t.Errorf("verify round trip:\n got %+v\nwant %+v", got, vf)
	}
}

// Deterministic encoding: the sel tier holds a map, which must encode
// identically regardless of insertion order or identical bytes on disk
// (chunk dedup) would silently stop working.
func TestArtifactCodecDeterministic(t *testing.T) {
	build := func(order []int) *frozenSel {
		ps := &cp.ProcSelection{CPs: map[int]*cp.CP{}}
		for _, id := range order {
			ps.CPs[id] = &cp.CP{Terms: []cp.Term{{Array: "a"}}}
		}
		return &frozenSel{Sel: ps}
	}
	a, _ := encodeArtifact(artifactSel, build([]int{1, 2, 3, 4, 5, 6, 7, 8}))
	b, _ := encodeArtifact(artifactSel, build([]int{8, 7, 6, 5, 4, 3, 2, 1}))
	if string(a) != string(b) {
		t.Fatal("sel encoding depends on map insertion order")
	}
}

// Kinds the store does not hold (a live IR graph under any name) and
// unexpected value types must be skipped, not serialized wrongly.
func TestArtifactCodecSkipsUnsupported(t *testing.T) {
	if _, ok := encodeArtifact("ast", &ir.Procedure{}); ok {
		t.Error("live IR encoded")
	}
	if _, ok := encodeArtifact(artifactComm, "wrong type"); ok {
		t.Error("mistyped comm encoded")
	}
	if _, ok := encodeArtifact("nonsense", 7); ok {
		t.Error("unknown kind encoded")
	}
	if _, ok := decodeArtifact("nonsense", []byte("junk")); ok {
		t.Error("unknown kind decoded")
	}
}

// A value written under a different codec version reads as a miss.
func TestArtifactCodecVersionMismatchIsMiss(t *testing.T) {
	w := codec.NewWriter("artifact/"+artifactComm, artifactCodecVersion+1)
	w.Uvarint(0)
	if _, ok := decodeArtifact(artifactComm, w.Bytes()); ok {
		t.Fatal("future-version artifact decoded")
	}
	if _, ok := decodeArtifact(artifactComm, []byte("not even codec")); ok {
		t.Fatal("garbage decoded")
	}
}

// Truncated artifact bodies are misses, never panics or partial values.
func TestArtifactCodecTruncationIsMiss(t *testing.T) {
	full, ok := encodeArtifact(artifactVerify, &frozenVerify{
		Diagnostics: []verify.Diagnostic{{Check: "c", Severity: "info", Proc: "p", Why: "w"}},
		Stmts:       3, OldIDs: []int{1, 2, 3},
	})
	if !ok {
		t.Fatal("encode refused")
	}
	for cut := 0; cut < len(full); cut++ {
		if _, ok := decodeArtifact(artifactVerify, full[:cut]); ok {
			t.Fatalf("cut=%d decoded as complete", cut)
		}
	}
}

// The storeBacking adapter persists through a real journal: a Put via
// one backing is a Load via a second backing over a reopened store.
func TestStoreBackingPersists(t *testing.T) {
	path := filepath.Join(t.TempDir(), "artifacts.journal")
	st, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := NewStoreBacking(st)
	key := artifactKey(artifactComm, "env-fp-1")
	want := &frozenComm{Events: []frozenEvent{{Kind: comm.WriteBack, Stmt: 1, Ref: refSel{Kind: selLHS}, Depth: 1}}}
	b.Store(key, want, 128)

	// Values of kinds the store does not hold are skipped silently.
	b.Store(artifactKey("ast", "x"), &ir.Procedure{}, 1)
	if _, _, ok := b.Load(artifactKey("ast", "x")); ok {
		t.Error("live IR persisted")
	}
	st.Close()

	st2, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got, size, ok := NewStoreBacking(st2).Load(key)
	if !ok || size <= 0 {
		t.Fatalf("Load after reopen: ok=%v size=%d", ok, size)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("thawed comm differs:\n got %+v\nwant %+v", got, want)
	}
	if _, _, ok := NewStoreBacking(st2).Load(artifactKey(artifactComm, "other-env")); ok {
		t.Error("phantom artifact")
	}
}
