// Command vetdet is the repo's determinism linter.  It enforces three
// rules that protect the byte-identical-report, golden-output, and
// content-addressed-fingerprint guarantees:
//
//  1. Map-range order: a `for … range m` loop over a map whose body
//     feeds order-sensitive output — appending to an outer slice,
//     writing through an io.Writer / strings.Builder / bytes.Buffer,
//     or concatenating onto an outer string — produces
//     nondeterministically ordered output.  The fix is always the same
//     idiom: collect the keys, sort, then range over the sorted slice.
//
//  2. Wall-clock and global randomness in the deterministic core: the
//     compiler, analysis, and verification packages must be pure
//     functions of their inputs (their results are fingerprinted and
//     memoized), so calls to time.Now/time.Since or to math/rand's
//     global-source functions (rand.Int, rand.Perm, … — a seeded
//     rand.New(rand.NewSource(k)) is deterministic and allowed) are
//     flagged there.  Timing telemetry that never reaches a
//     fingerprint carries a //vetdet:ok exemption.
//
//  3. Unsorted key escapes: an exported function that gathers map keys
//     into a slice and returns it without sorting leaks map iteration
//     order across a package boundary, where it eventually reaches a
//     report or a fingerprint.
//
// Two exemptions keep the signal clean:
//
//   - a loop whose body is a single `ks = append(ks, k)` statement
//     appending only the range variables is the first half of the
//     sort-then-range idiom and is allowed (until rule 3 sees it
//     returned unsorted);
//   - a `//vetdet:ok` comment on the flagged line suppresses the
//     finding (for sinks that are genuinely order-insensitive and
//     clocks that are genuinely telemetry).
//
// Built on go/parser + go/types with the stdlib "source" importer
// (golang.org/x/tools is unavailable in this environment, so this is a
// standalone main rather than a go/analysis Analyzer driven by `go vet
// -vettool`).  Run it as:
//
//	go run ./tools/vetdet [package-dir ...]   (default: ./internal/...)
//
// Exit status 1 when any finding is reported.
package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

func main() {
	patterns := os.Args[1:]
	if len(patterns) == 0 {
		patterns = []string{"./internal/..."}
	}
	pkgs, err := listPackages(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vetdet:", err)
		os.Exit(2)
	}
	var findings []string
	l := newLinter()
	for _, p := range pkgs {
		fs, err := l.lintPackage(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vetdet:", err)
			os.Exit(2)
		}
		findings = append(findings, fs...)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// listedPackage is the slice of `go list -json` output vetdet needs.
type listedPackage struct {
	Dir        string
	ImportPath string
	GoFiles    []string
}

// listPackages resolves package patterns through the go command (the
// only module-aware resolver available without x/tools).
func listPackages(patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-json=Dir,ImportPath,GoFiles"}, patterns...)
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return nil, fmt.Errorf("go list: %s", ee.Stderr)
		}
		return nil, err
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for dec.More() {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// linter is one run's file set and source importer, shared by every
// package it lints: each package an import closure reaches is
// type-checked from source once per run, not once per importer.
type linter struct {
	fset *token.FileSet
	imp  types.Importer
}

func newLinter() *linter {
	fset := token.NewFileSet()
	return &linter{fset: fset, imp: importer.ForCompiler(fset, "source", nil)}
}

// lintPackage parses, type-checks and lints one package's non-test
// files.
func (l *linter) lintPackage(p listedPackage) ([]string, error) {
	fset := l.fset
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
		Defs:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: l.imp}
	if _, err := conf.Check(files[0].Name.Name, fset, files, info); err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", p.Dir, err)
	}
	var findings []string
	for _, f := range files {
		if exempt, generated := fileExemption(f); exempt {
			if !generated {
				findings = append(findings, fmt.Sprintf(
					"%s: //vetdet:exempt-file in a hand-written file: only machine-generated files (carrying a \"// Code generated … DO NOT EDIT.\" header) may be exempted",
					fset.Position(f.Pos())))
			} else {
				// A generated file is exempt wholesale: its emitter is
				// itself in the deterministic core and linted, so the
				// output's determinism is established at the source.
				continue
			}
		}
		findings = append(findings, lintFile(fset, f, info)...)
		findings = append(findings, lintUnsortedKeyReturns(fset, f, info)...)
		if deterministicCore(p.ImportPath) {
			findings = append(findings, lintNondetCalls(fset, f, info)...)
		}
	}
	return findings, nil
}

// fileExemption scans a file's comments for the //vetdet:exempt-file
// marker and the standard machine-generated header.  The exemption is
// honored only when both are present; a hand-written file claiming it
// is reported instead of silenced.
func fileExemption(f *ast.File) (exempt, generated bool) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, "//vetdet:exempt-file") {
				exempt = true
			}
			if strings.HasPrefix(c.Text, "// Code generated ") && strings.HasSuffix(c.Text, "DO NOT EDIT.") {
				generated = true
			}
		}
	}
	return exempt, generated
}

// deterministicCore reports whether the package is part of the
// compiler/analysis core whose outputs are fingerprinted or memoized —
// the scope of the wall-clock/global-rand rule.  The service, CLI, and
// tuner layers may read the clock (request logging, tier wall
// counters); the core may not.
func deterministicCore(importPath string) bool {
	switch importPath {
	case "dhpf/internal/parser", "dhpf/internal/hpf", "dhpf/internal/ir",
		"dhpf/internal/iset", "dhpf/internal/cp", "dhpf/internal/comm",
		"dhpf/internal/sched", "dhpf/internal/spmd", "dhpf/internal/passes", "dhpf/internal/analysis",
		"dhpf/internal/verify", "dhpf/internal/perfmodel", "dhpf/internal/nas",
		// The native tier: CI regenerates the kernel corpus and diffs it,
		// so the emitter must be deterministic; the generated corpus
		// rides along and is exempted per-file by its machine-generated
		// header.
		"dhpf/internal/codegen", "dhpf/internal/codegen/gen":
		return true
	}
	return false
}

// lintFile walks one file for map-range loops feeding ordered sinks.
func lintFile(fset *token.FileSet, f *ast.File, info *types.Info) []string {
	suppressed := suppressedLines(fset, f)
	var findings []string
	ast.Inspect(f, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := info.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		if suppressed[fset.Position(rng.Pos()).Line] {
			return true
		}
		if isKeyCollection(rng, info) {
			return true
		}
		if sink := orderedSink(rng, info); sink != "" {
			pos := fset.Position(rng.Pos())
			findings = append(findings,
				fmt.Sprintf("%s: map iteration order feeds %s: sort the keys first (or mark //vetdet:ok)",
					pos, sink))
		}
		return true
	})
	return findings
}

// suppressedLines collects the lines carrying a //vetdet:ok comment.
func suppressedLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, "//vetdet:ok") {
				lines[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}

// isKeyCollection reports the allowed idiom: a body that is exactly one
// `ks = append(ks, k)` (or `ks = append(ks, k, v)`) whose appended
// values are only the range variables — the gather step before sorting.
func isKeyCollection(rng *ast.RangeStmt, info *types.Info) bool {
	if len(rng.Body.List) != 1 {
		return false
	}
	as, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || !isBuiltinAppend(call, info) || len(call.Args) < 2 {
		return false
	}
	rangeVars := map[types.Object]bool{}
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok {
			rangeVars[info.Defs[id]] = true
		}
	}
	for _, arg := range call.Args[1:] {
		id, ok := arg.(*ast.Ident)
		if !ok || !rangeVars[info.Uses[id]] {
			return false
		}
	}
	return true
}

func isBuiltinAppend(call *ast.CallExpr, info *types.Info) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// orderedSink returns a description of the first order-sensitive output
// the loop body feeds, or "" when the body looks order-insensitive.
func orderedSink(rng *ast.RangeStmt, info *types.Info) string {
	inLoop := func(obj types.Object) bool {
		return obj != nil && obj.Pos() >= rng.Pos() && obj.Pos() <= rng.End()
	}
	var sink string
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch s := n.(type) {
		case *ast.AssignStmt:
			// v = append(v, …) or v += … onto a variable declared
			// outside the loop.
			if len(s.Lhs) != 1 {
				return true
			}
			id, ok := s.Lhs[0].(*ast.Ident)
			if !ok {
				return true
			}
			obj := info.Uses[id]
			if obj == nil || inLoop(obj) {
				return true
			}
			if s.Tok == token.ADD_ASSIGN {
				if b, ok := obj.Type().Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
					sink = fmt.Sprintf("string concatenation onto %q", id.Name)
				}
				return true
			}
			if call, ok := s.Rhs[0].(*ast.CallExpr); ok && isBuiltinAppend(call, info) {
				sink = fmt.Sprintf("append to outer slice %q", id.Name)
			}
		case *ast.CallExpr:
			switch fn := s.Fun.(type) {
			case *ast.SelectorExpr:
				name := fn.Sel.Name
				if pkgIdent, ok := fn.X.(*ast.Ident); ok {
					if pn, ok := info.Uses[pkgIdent].(*types.PkgName); ok && pn.Imported().Path() == "fmt" &&
						strings.HasPrefix(name, "Fprint") {
						sink = "a writer via fmt." + name
						return true
					}
				}
				// Methods that emit onto an outer writer/builder/buffer.
				switch name {
				case "WriteString", "WriteByte", "WriteRune", "Write", "Printf", "Println", "Print":
					if recv, ok := fn.X.(*ast.Ident); ok {
						if obj := info.Uses[recv]; obj != nil && !inLoop(obj) && isWriterish(obj.Type()) {
							sink = fmt.Sprintf("writes to outer %q via %s", recv.Name, name)
						}
					}
				}
			}
		}
		return true
	})
	return sink
}

// isWriterish recognizes the output types whose write order is the
// output order: anything with a Write([]byte) method (io.Writer,
// *bytes.Buffer, *strings.Builder) by name.
func isWriterish(t types.Type) bool {
	for _, typ := range []types.Type{t, types.NewPointer(t)} {
		ms := types.NewMethodSet(typ)
		for i := 0; i < ms.Len(); i++ {
			if ms.At(i).Obj().Name() == "Write" {
				return true
			}
		}
	}
	return false
}

// globalRandFuncs are the math/rand package-level functions that draw
// from the unseeded global source.  rand.New and rand.NewSource are
// absent: a *rand.Rand built from an explicit seed is deterministic.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
}

// lintNondetCalls flags wall-clock reads and global-source randomness
// inside a deterministic-core package: time.Now / time.Since and the
// math/rand global-source functions.  //vetdet:ok on the call's line
// exempts telemetry that never reaches a fingerprint.
func lintNondetCalls(fset *token.FileSet, f *ast.File, info *types.Info) []string {
	suppressed := suppressedLines(fset, f)
	var findings []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgIdent, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := info.Uses[pkgIdent].(*types.PkgName)
		if !ok {
			return true
		}
		pos := fset.Position(call.Pos())
		if suppressed[pos.Line] {
			return true
		}
		switch pn.Imported().Path() {
		case "time":
			if sel.Sel.Name == "Now" || sel.Sel.Name == "Since" {
				findings = append(findings, fmt.Sprintf(
					"%s: wall clock (time.%s) in a deterministic-core package: results here are fingerprinted (or mark //vetdet:ok for telemetry)",
					pos, sel.Sel.Name))
			}
		case "math/rand", "math/rand/v2":
			if globalRandFuncs[sel.Sel.Name] {
				findings = append(findings, fmt.Sprintf(
					"%s: global-source rand.%s in a deterministic-core package: seed an explicit rand.New(rand.NewSource(k)) instead",
					pos, sel.Sel.Name))
			}
		}
		return true
	})
	return findings
}

// lintUnsortedKeyReturns flags exported functions that gather map keys
// into a slice and return that slice with no sort call on it anywhere
// in the function: map iteration order escapes the package boundary.
func lintUnsortedKeyReturns(fset *token.FileSet, f *ast.File, info *types.Info) []string {
	suppressed := suppressedLines(fset, f)
	var findings []string
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil || !fn.Name.IsExported() {
			continue
		}
		// The slices that hold gathered map keys, by object.
		gathered := map[types.Object]token.Position{}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := info.Types[rng.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if !isKeyCollection(rng, info) {
				return true
			}
			as := rng.Body.List[0].(*ast.AssignStmt)
			if id, ok := as.Lhs[0].(*ast.Ident); ok {
				if obj := objectOf(id, info); obj != nil {
					gathered[obj] = fset.Position(rng.Pos())
				}
			}
			return true
		})
		if len(gathered) == 0 {
			continue
		}
		// Any ident that appears inside a sort.* / slices.* call counts
		// as sorted (covers sort.Strings(ks), sort.Slice(ks, …), and
		// sort.Sort(byName(ks))).
		sorted := map[types.Object]bool{}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgIdent, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := info.Uses[pkgIdent].(*types.PkgName)
			if !ok || (pn.Imported().Path() != "sort" && pn.Imported().Path() != "slices") {
				return true
			}
			for _, arg := range call.Args {
				ast.Inspect(arg, func(a ast.Node) bool {
					if id, ok := a.(*ast.Ident); ok {
						if obj := info.Uses[id]; obj != nil {
							sorted[obj] = true
						}
					}
					return true
				})
			}
			return true
		})
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			ret, ok := n.(*ast.ReturnStmt)
			if !ok {
				return true
			}
			for _, r := range ret.Results {
				id, ok := r.(*ast.Ident)
				if !ok {
					continue
				}
				obj := info.Uses[id]
				pos, isGathered := gathered[obj]
				if !isGathered || sorted[obj] {
					continue
				}
				retPos := fset.Position(ret.Pos())
				if suppressed[retPos.Line] || suppressed[pos.Line] {
					continue
				}
				findings = append(findings, fmt.Sprintf(
					"%s: %s returns map keys %q (gathered at line %d) unsorted across the package boundary: sort before returning (or mark //vetdet:ok)",
					retPos, fn.Name.Name, id.Name, pos.Line))
			}
			return true
		})
	}
	return findings
}

// objectOf resolves an ident whether it defines or uses its object.
func objectOf(id *ast.Ident, info *types.Info) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}
