package passes

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"sort"
)

// fingerprintVersion is bumped whenever the canonical encoding below (or
// the meaning of any Options field) changes, so stale cache keys from an
// older build can never alias a new configuration.
const fingerprintVersion = "dhpf-options-v3"

// Fingerprint returns a stable content hash of the options: two Options
// values that configure the same pipeline (e.g. Disable lists that are
// permutations of each other, or contain duplicates) hash identically,
// and any semantic difference — a disabled pass, a different NEW
// propagation mode, pipeline grain, or instrumentation — yields a
// different hash.  It is the Options half of the compile-cache key (see
// FingerprintKey).
func (o Options) Fingerprint() string {
	h := sha256.New()
	writeOptions(h, o)
	return hex.EncodeToString(h.Sum(nil))
}

// FingerprintKey is the canonical content address of one compilation:
// a stable hash of (source, params, options).  Equal inputs — up to
// Options canonicalization and param-map ordering — produce equal keys;
// dhpf.Fingerprint exposes it to API users and internal/service keys its
// program cache with it.
func FingerprintKey(source string, params map[string]int, o Options) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00src:%d\x00", fingerprintVersion, len(source))
	io.WriteString(h, source)
	names := make([]string, 0, len(params))
	for k := range params {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(h, "\x00params:%d\x00", len(names))
	for _, k := range names {
		fmt.Fprintf(h, "%d:%s=%d\x00", len(k), k, params[k])
	}
	writeOptions(h, o)
	return hex.EncodeToString(h.Sum(nil))
}

// writeOptions streams the canonical encoding of Options into h: every
// field in a fixed order, labeled and delimited, with Disable sorted and
// deduplicated (disabling a pass twice is the same ablation).
func writeOptions(h hash.Hash, o Options) {
	fmt.Fprintf(h, "%s\x00newprop=%d\x00maxcombos=%d\x00grain=%d\x00instrument=%t\x00",
		fingerprintVersion, o.CP.NewProp, o.CP.MaxCombos, o.PipelineGrain, o.Instrument)
	// Backend is canonicalized so "" and "mp" (the same configuration)
	// hash identically; an unknown name still hashes distinctly and is
	// rejected later by BuildPipeline.
	backend := o.Backend
	if b, err := ParseBackend(backend); err == nil {
		backend = b
	}
	fmt.Fprintf(h, "backend=%d:%s\x00", len(backend), backend)
	disable := append([]string{}, o.Disable...)
	sort.Strings(disable)
	fmt.Fprintf(h, "disable:")
	prev := ""
	for i, d := range disable {
		if i > 0 && d == prev {
			continue
		}
		fmt.Fprintf(h, "%d:%s\x00", len(d), d)
		prev = d
	}
}
