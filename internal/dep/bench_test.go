package dep_test

import (
	"testing"

	"dhpf/internal/dep"
	"dhpf/internal/ir"
	"dhpf/internal/nas"
	"dhpf/internal/parser"
)

// BenchmarkDepAnalyze analyzes the largest procedure of the class-sized SP
// source: a few hundred assignments whose accesses are paired per array.
func BenchmarkDepAnalyze(b *testing.B) {
	var body []ir.Stmt
	most := -1
	for _, proc := range parser.MustParse(nas.SPSource(32, 2, 2, 2)).Procs {
		if n := len(ir.Assignments(proc.Body)); n > most {
			body, most = proc.Body, n
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(dep.Analyze(body)) == 0 {
			b.Fatal("no dependences")
		}
	}
}
