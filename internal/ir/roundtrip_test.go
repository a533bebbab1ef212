package ir_test

import (
	"os"
	"path/filepath"
	"testing"

	"dhpf/internal/codegen"
	"dhpf/internal/ir"
	"dhpf/internal/nas"
	"dhpf/internal/parser"
)

// TestPrintRoundTripCorpus: every shipped program — testdata, the NAS
// codes and the codegen corpus — prints as the fmt printer spelled it,
// and parse → print → parse → print is a fixed point.
func TestPrintRoundTripCorpus(t *testing.T) {
	type source struct{ name, text string }
	sources := []source{
		{"sp16", nas.SPSource(16, 1, 2, 2)},
		{"bt12", nas.BTSource(12, 1, 2, 2)},
		{"lu16", nas.LUSource(16, 1, 2, 2)},
		{"spmod32", nas.SPModSource(32, 2, 2, 2)},
	}
	files, err := filepath.Glob("../../testdata/*.hpf")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	for _, f := range files {
		text, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, source{filepath.Base(f), string(text)})
	}
	for _, e := range codegen.Corpus() {
		sources = append(sources, source{"corpus-" + e.Name, e.Source})
	}
	for _, src := range sources {
		t.Run(src.name, func(t *testing.T) {
			prog, err := parser.Parse(src.text)
			if err != nil {
				t.Fatal(err)
			}
			ir.CheckProgramText(t, prog)
			text := ir.Print(prog)
			again, err := parser.Parse(text)
			if err != nil {
				t.Fatalf("printed program does not parse: %v\n%s", err, text)
			}
			if got := ir.Print(again); got != text {
				t.Fatalf("print → parse → print is not a fixed point:\n--- first\n%s\n--- second\n%s", text, got)
			}
		})
	}
}
