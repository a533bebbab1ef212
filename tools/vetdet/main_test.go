package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const fixture = `package fixture

import (
	"fmt"
	"sort"
	"strings"
)

func bad(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k+"!") // transformed, not a bare key gather
	}
	return out
}

func badPrint(m map[string]int, b *strings.Builder) {
	for k, v := range m {
		fmt.Fprintf(b, "%s=%d\n", k, v)
	}
}

func badBuilder(m map[string]int) string {
	var b strings.Builder
	for k := range m {
		b.WriteString(k)
	}
	return b.String()
}

func badConcat(m map[string]int) string {
	s := ""
	for k := range m {
		s += k
	}
	return s
}

func good(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func goodLocal(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

func suppressed(m map[string]int) []string {
	var out []string
	for k := range m { //vetdet:ok
		out = append(out, k+"?")
	}
	return out
}
`

func TestLintFixture(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fixture.go")
	if err := os.WriteFile(path, []byte(fixture), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := newLinter().lintPackage(listedPackage{Dir: dir, GoFiles: []string{"fixture.go"}})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		`append to outer slice "out"`,
		"fmt.Fprintf",
		`outer "b" via WriteString`,
		`string concatenation onto "s"`,
	}
	if len(findings) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%s", len(findings), len(want), strings.Join(findings, "\n"))
	}
	for i, w := range want {
		if !strings.Contains(findings[i], w) {
			t.Errorf("finding %d = %q, want mention of %q", i, findings[i], w)
		}
	}
	for _, f := range findings {
		if strings.Contains(f, "good") || strings.Contains(f, "suppressed") {
			t.Errorf("false positive: %s", f)
		}
	}
}

const nondetFixture = `package fixture

import (
	"math/rand"
	"time"
)

func badClock() time.Time {
	return time.Now()
}

func badElapsed(t0 time.Time) time.Duration {
	return time.Since(t0)
}

func badRand() int {
	return rand.Intn(10)
}

func goodSeeded(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(10)
}

func exemptTelemetry() time.Time {
	return time.Now() //vetdet:ok pass wall times are telemetry, not results
}
`

// TestNondetCallsInCore: time.Now/time.Since and global-source
// math/rand calls are findings inside a deterministic-core package,
// while seeded rand.New(rand.NewSource(k)) and //vetdet:ok lines pass.
// The same file in a non-core package lints clean.
func TestNondetCallsInCore(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fixture.go")
	if err := os.WriteFile(path, []byte(nondetFixture), 0o644); err != nil {
		t.Fatal(err)
	}
	core := listedPackage{Dir: dir, ImportPath: "dhpf/internal/analysis", GoFiles: []string{"fixture.go"}}
	findings, err := newLinter().lintPackage(core)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"time.Now", "time.Since", "rand.Intn"}
	if len(findings) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%s", len(findings), len(want), strings.Join(findings, "\n"))
	}
	for i, w := range want {
		if !strings.Contains(findings[i], w) {
			t.Errorf("finding %d = %q, want mention of %q", i, findings[i], w)
		}
	}
	for _, f := range findings {
		if strings.Contains(f, "goodSeeded") || strings.Contains(f, "exempt") {
			t.Errorf("false positive: %s", f)
		}
	}

	outside := listedPackage{Dir: dir, ImportPath: "dhpf/internal/service", GoFiles: []string{"fixture.go"}}
	findings, err = newLinter().lintPackage(outside)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Errorf("non-core package should not be clock-checked:\n%s", strings.Join(findings, "\n"))
	}
}

const keyReturnFixture = `package fixture

import "sort"

func BadKeys(m map[string]int) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}

func GoodKeys(m map[string]int) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func GoodSortSlice(m map[string]int) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// unexported callers stay inside the package; the caller is
// responsible for ordering before anything escapes.
func internalKeys(m map[string]int) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}

func ExemptKeys(m map[string]int) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return ks //vetdet:ok order-insensitive membership set
}
`

// TestUnsortedKeyReturns: an exported function returning a gathered
// key slice without a sort is a finding; sorted, unexported, and
// exempted variants pass.
func TestUnsortedKeyReturns(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fixture.go")
	if err := os.WriteFile(path, []byte(keyReturnFixture), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := newLinter().lintPackage(listedPackage{Dir: dir, GoFiles: []string{"fixture.go"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1:\n%s", len(findings), strings.Join(findings, "\n"))
	}
	if !strings.Contains(findings[0], "BadKeys") || !strings.Contains(findings[0], "unsorted") {
		t.Errorf("finding = %q, want BadKeys unsorted-return", findings[0])
	}
}

const exemptGeneratedFixture = `// Code generated by dhpf internal/codegen. DO NOT EDIT.
//vetdet:exempt-file machine-generated kernels (emission is deterministic by construction)

package fixture

import "time"

func Clock() time.Time {
	return time.Now()
}
`

const exemptHandwrittenFixture = `//vetdet:exempt-file trust me

package fixture

import "time"

func Clock() time.Time {
	return time.Now()
}
`

// TestExemptFile: the //vetdet:exempt-file marker silences every rule,
// but only in files carrying the machine-generated header; a
// hand-written file claiming it is itself a finding (and still linted).
func TestExemptFile(t *testing.T) {
	dir := t.TempDir()
	gen := filepath.Join(dir, "gen")
	hand := filepath.Join(dir, "hand")
	for d, src := range map[string]string{gen: exemptGeneratedFixture, hand: exemptHandwrittenFixture} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(d, "fixture.go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	findings, err := newLinter().lintPackage(listedPackage{Dir: gen, ImportPath: "dhpf/internal/codegen/gen", GoFiles: []string{"fixture.go"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Errorf("generated exempt file should lint clean:\n%s", strings.Join(findings, "\n"))
	}

	findings, err = newLinter().lintPackage(listedPackage{Dir: hand, ImportPath: "dhpf/internal/analysis", GoFiles: []string{"fixture.go"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 2 {
		t.Fatalf("got %d findings, want 2 (misused exemption + clock):\n%s", len(findings), strings.Join(findings, "\n"))
	}
	if !strings.Contains(findings[0], "hand-written") {
		t.Errorf("finding 0 = %q, want misused-exemption report", findings[0])
	}
	if !strings.Contains(findings[1], "time.Now") {
		t.Errorf("finding 1 = %q, want the clock finding to survive", findings[1])
	}
}

// TestRepoClean: the tree this linter ships in must itself lint clean —
// the same invocation CI runs, every package through one linter.  The
// package count is pinned: a package added or removed changes it here.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("source-importer type-check of the whole tree is slow")
	}
	pkgs, err := listPackages([]string{"dhpf/internal/...", "dhpf/cmd/...", "dhpf"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 31 {
		t.Errorf("%d packages listed, want 31", len(pkgs))
	}
	l := newLinter()
	for _, p := range pkgs {
		findings, err := l.lintPackage(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range findings {
			t.Error(f)
		}
	}
}
