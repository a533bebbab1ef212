package passes

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"dhpf/internal/cp"
)

// TestFingerprintCanonical: semantically equal Options fingerprint
// identically — Disable order and duplicates don't matter.
func TestFingerprintCanonical(t *testing.T) {
	a := DefaultOptions().WithDisabled(PassAvailability, PassLoopDist)
	b := DefaultOptions().WithDisabled(PassLoopDist, PassAvailability)
	c := DefaultOptions().WithDisabled(PassLoopDist, PassAvailability, PassLoopDist)
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("permuted Disable lists fingerprint differently")
	}
	if a.Fingerprint() != c.Fingerprint() {
		t.Error("duplicated Disable entry changes the fingerprint")
	}
	if got := DefaultOptions().Fingerprint(); got != DefaultOptions().Fingerprint() {
		t.Errorf("fingerprint not stable: %s", got)
	}
}

// TestFingerprintDistinguishes: every semantic change to the inputs
// yields a different key.
func TestFingerprintDistinguishes(t *testing.T) {
	base := DefaultOptions()
	variants := map[string]Options{
		"disable":    base.WithDisabled(PassAvailability),
		"grain":      func() Options { o := base; o.PipelineGrain = 16; return o }(),
		"instrument": func() Options { o := base; o.Instrument = true; return o }(),
		"newprop":    func() Options { o := base; o.CP.NewProp++; return o }(),
		"maxcombos":  func() Options { o := base; o.CP.MaxCombos++; return o }(),
		"backend":    func() Options { o := base; o.Backend = BackendShm; return o }(),
	}
	seen := map[string]string{base.Fingerprint(): "base"}
	for name, o := range variants {
		fp := o.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("variant %q collides with %q", name, prev)
		}
		seen[fp] = name
	}

	// The full key also separates source and params.
	src := "program p\nend\n"
	k0 := FingerprintKey(src, nil, base)
	if k0 != FingerprintKey(src, nil, base) {
		t.Error("key not stable")
	}
	if k0 != FingerprintKey(src, map[string]int{}, base) {
		t.Error("nil and empty params must key identically")
	}
	if k0 == FingerprintKey(src+" ", nil, base) {
		t.Error("source change not reflected in key")
	}
	if k0 == FingerprintKey(src, map[string]int{"N": 8}, base) {
		t.Error("param change not reflected in key")
	}
	if FingerprintKey(src, map[string]int{"N": 8, "P": 2}, base) !=
		FingerprintKey(src, map[string]int{"P": 2, "N": 8}, base) {
		t.Error("param map ordering changes the key")
	}
}

// randomOptions draws an Options value spanning every tunable field the
// auto-tuner can set through dhpf.TuneOptions.
func randomOptions(rng *rand.Rand) Options {
	o := DefaultOptions()
	o.CP.NewProp = cp.NewPropMode(rng.Intn(3))
	o.CP.MaxCombos = 1 + rng.Intn(64)
	o.PipelineGrain = 1 << rng.Intn(6)
	o.Instrument = rng.Intn(2) == 0
	optional := OptionalPassNames()
	for _, p := range rng.Perm(len(optional))[:rng.Intn(len(optional)+1)] {
		o.Disable = append(o.Disable, optional[p])
	}
	return o
}

// TestFingerprintPermutationInvariantProperty: for random Options, any
// permutation (plus random duplication) of the Disable list fingerprints
// identically — the cache key depends on the ablation set, not its
// spelling.
func TestFingerprintPermutationInvariantProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		o := randomOptions(rng)
		want := o.Fingerprint()
		perm := o
		perm.Disable = make([]string, 0, len(o.Disable)+2)
		for _, i := range rng.Perm(len(o.Disable)) {
			perm.Disable = append(perm.Disable, o.Disable[i])
		}
		for i := 0; i < len(o.Disable) && i < 2; i++ {
			perm.Disable = append(perm.Disable, o.Disable[rng.Intn(len(o.Disable))])
		}
		if got := perm.Fingerprint(); got != want {
			t.Fatalf("trial %d: permuted Disable %v fingerprints differently from %v",
				trial, perm.Disable, o.Disable)
		}
	}
}

// TestFingerprintFieldSensitivityProperty: from random base Options,
// mutating any single tunable field changes the fingerprint — no two
// distinct configurations can alias one cache entry.
func TestFingerprintFieldSensitivityProperty(t *testing.T) {
	optional := OptionalPassNames()
	mutations := map[string]func(*rand.Rand, *Options){
		"newprop":    func(r *rand.Rand, o *Options) { o.CP.NewProp = (o.CP.NewProp + 1 + cp.NewPropMode(r.Intn(2))) % 3 },
		"maxcombos":  func(_ *rand.Rand, o *Options) { o.CP.MaxCombos++ },
		"grain":      func(_ *rand.Rand, o *Options) { o.PipelineGrain *= 2 },
		"backend":    func(_ *rand.Rand, o *Options) { o.Backend = BackendShm },
		"instrument": func(_ *rand.Rand, o *Options) { o.Instrument = !o.Instrument },
		"disable": func(r *rand.Rand, o *Options) {
			// Toggle one pass's membership in the ablation set.
			name := optional[r.Intn(len(optional))]
			kept := o.Disable[:0]
			found := false
			for _, d := range o.Disable {
				if d == name {
					found = true
				} else {
					kept = append(kept, d)
				}
			}
			o.Disable = kept
			if !found {
				o.Disable = append(o.Disable, name)
			}
		},
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		base := randomOptions(rng)
		want := base.Fingerprint()
		for name, mutate := range mutations {
			mutated := base
			mutated.Disable = append([]string{}, base.Disable...)
			mutate(rng, &mutated)
			if mutated.Fingerprint() == want {
				t.Fatalf("trial %d: mutating %q did not change the fingerprint (base %+v)",
					trial, name, base)
			}
		}
	}
}

// TestRunCtxCancelled: a pre-cancelled context aborts before the first
// pass and reports which boundary stopped it.
func TestRunCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cc := &CompileContext{Source: "program p\nend\n", Opt: DefaultOptions()}
	err := RunCtx(ctx, cc)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if !strings.Contains(err.Error(), PassParse) {
		t.Errorf("error should name the boundary: %v", err)
	}
	if len(cc.Stats) != 0 {
		t.Errorf("aborted run recorded %d pass stats", len(cc.Stats))
	}
}
