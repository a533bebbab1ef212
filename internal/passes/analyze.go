package passes

import (
	"fmt"

	"dhpf/internal/analysis"
)

// buildAnalysisInput assembles the static-analysis input from the
// compile context — the same facts the verifier reads.  The analyze pass
// computes symbolic loop summaries and distributed-array dataflow over
// it; Predict (the cost oracle) is run on demand by the surfaces, not
// there, because its output depends on nothing the pipeline caches.
func buildAnalysisInput(cc *CompileContext) *analysis.Input {
	return &analysis.Input{IR: cc.IR, Ctx: cc.Ctx, Sel: cc.Sel, Comm: cc.Comm, Grid: cc.Grid}
}

// checkAnalyze is deliberately lenient, unlike checkVerify: dataflow
// ERROR diagnostics describe properties of the *program* (reading unset
// distributed storage), not of the compiler, so they must not fail the
// compile — the program still executes deterministically.  The corpus
// cleanliness gate lives in `dhpfc -analyze` (nonzero exit on ERROR),
// which CI runs over testdata.
func checkAnalyze(cc *CompileContext) error {
	if cc.Analysis == nil {
		return fmt.Errorf("no analysis result produced")
	}
	if len(cc.Analysis.Procs) != len(cc.IR.Procs) {
		return fmt.Errorf("analysis covers %d of %d procedures", len(cc.Analysis.Procs), len(cc.IR.Procs))
	}
	return nil
}
