package dep_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dhpf/internal/dep"
	"dhpf/internal/ir"
	"dhpf/internal/nas"
	"dhpf/internal/parser"
)

var update = flag.Bool("update", false, "rewrite testdata/*.deps.golden (only when the dependences are meant to change)")

// goldenSources are the NAS codes at 12³ whose dependences are pinned.
var goldenSources = []struct{ name, src string }{
	{"sp12", nas.SPSource(12, 1, 2, 2)},
	{"bt12", nas.BTSource(12, 1, 2, 2)},
	{"lu12", nas.LUSource(12, 1, 2, 2)},
	{"spmod12", nas.SPModSource(12, 1, 2, 2)},
}

// dumpDeps renders every dependence of every procedure, in Analyze's
// order: kind, the source and destination statements (their index among
// the procedure's assignments) and references, the common nest's index
// variables, the distance vector and the carrying level.
func dumpDeps(prog *ir.Program) string {
	var b strings.Builder
	for _, proc := range prog.Procs {
		stmt := map[*ir.Assign]int{}
		for i, an := range ir.Assignments(proc.Body) {
			stmt[an.Assign] = i
		}
		deps := dep.Analyze(proc.Body)
		fmt.Fprintf(&b, "proc %s: %d dependences\n", proc.Name, len(deps))
		for _, d := range deps {
			fmt.Fprintf(&b, "%s s%d %v -> s%d %v nest (%s) dist %v level %d\n",
				d.Kind, stmt[d.Src], d.SrcRef, stmt[d.Dst], d.DstRef,
				strings.Join(ir.NestVars(d.CommonNest), ","), d.Distance, d.Level)
		}
	}
	return b.String()
}

// TestDependenceGolden pins every dependence of SP, BT, LU and SPMod at
// 12³.  The dependence tester's allocation work must not change what it
// finds.
func TestDependenceGolden(t *testing.T) {
	for _, tc := range goldenSources {
		t.Run(tc.name, func(t *testing.T) {
			got := dumpDeps(parser.MustParse(tc.src))
			path := filepath.Join("testdata", tc.name+".deps.golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
				for i := range min(len(gl), len(wl)) {
					if gl[i] != wl[i] {
						t.Fatalf("%s line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
			}
		})
	}
}
