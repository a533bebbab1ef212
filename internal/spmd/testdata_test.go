package spmd

import (
	"os"
	"path/filepath"
	"testing"

	"dhpf/internal/parser"
)

// TestShippedExamplesCompileAndVerify compiles every .hpf file under
// testdata/ and checks every array of each engine's execution against
// serial, bit for bit.
func TestShippedExamplesCompileAndVerify(t *testing.T) {
	files, err := filepath.Glob("../../testdata/*.hpf")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata files found: %v", err)
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := CompileSource(string(src), nil, DefaultOptions())
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			ref, err := RunSerial(parser.MustParse(string(src)), nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, engine := range []Engine{EngineInterp, EngineCompiled, EngineCodegen} {
				res, err := prog.ExecuteEngine(testMachine(prog.Grid.Size()), engine)
				if err != nil {
					t.Fatalf("%s: execute: %v", engine, err)
				}
				if _, err := res.AgreesWithSerial(ref, 0); err != nil {
					t.Fatalf("%s: %v", engine, err)
				}
			}
		})
	}
}
