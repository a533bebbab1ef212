// Command gencorpus regenerates the checked-in native-kernel corpus
// (internal/codegen/gen): it compiles every program in codegen.Corpus,
// extracts every kernel unit, and writes the deduplicated,
// fingerprint-sorted generated package.  The output is deterministic —
// CI regenerates and diffs it.
package main

import (
	"flag"
	"fmt"
	"go/format"
	"os"

	"dhpf/internal/codegen"
	"dhpf/internal/spmd"
)

func main() {
	out := flag.String("o", "gen/kernels.go", "output file")
	flag.Parse()
	var units []*spmd.KernelUnit
	for _, e := range codegen.Corpus() {
		prog, err := spmd.CompileSource(e.Source, e.Params, e.Opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gencorpus: compile %s: %v\n", e.Name, err)
			os.Exit(1)
		}
		us := prog.KernelUnits()
		if len(us) == 0 {
			fmt.Fprintf(os.Stderr, "gencorpus: %s yields no kernel units\n", e.Name)
			os.Exit(1)
		}
		units = append(units, us...)
	}
	src, err := format.Source([]byte(codegen.EmitCorpus(units)))
	if err != nil {
		fmt.Fprintf(os.Stderr, "gencorpus: emitted source does not format: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, src, 0o666); err != nil {
		fmt.Fprintf(os.Stderr, "gencorpus: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("gencorpus: wrote %s (%d units)\n", *out, countKernels(units))
}

func countKernels(units []*spmd.KernelUnit) int {
	seen := map[string]bool{}
	for _, u := range units {
		seen[u.Fingerprint()] = true
	}
	return len(seen)
}
