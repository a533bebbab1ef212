package passes

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strings"

	"dhpf/internal/cp"
	"dhpf/internal/hpf"
	"dhpf/internal/ir"
)

// artifactVersion is folded into every artifact fingerprint and bumped
// whenever the frozen artifact encodings (artifact.go) or the fingerprint
// derivation below change, so artifacts written by an older build can
// never thaw into a newer one.
const artifactVersion = "dhpf-artifact-v1"

// unitFingerprints is the per-compilation fingerprint table the
// incremental scheduler keys the artifact store with.
type unitFingerprints struct {
	// Header hashes the program-level context shared by every unit:
	// program name, resolved parameters, directives, and the options
	// fingerprint.
	Header string
	// Unit maps each procedure to the hash of its canonical rendering —
	// the content hash that is stable under whitespace/comment edits and
	// under edits to *other* procedures.
	Unit map[*ir.Procedure]string
	// Env maps each procedure to its environment fingerprint: everything
	// that can influence the procedure's analysis results — the header,
	// its own unit hash, its formal-layout overlay, and the unit hashes
	// and overlays of its transitive callees (whose entry CPs feed the §6
	// interprocedural selection at its call sites).  An artifact keyed by
	// Env is reusable exactly when Env is unchanged.
	Env map[*ir.Procedure]string
}

// fingerprintUnits computes the fingerprint table for a parsed, bound
// program whose formal-layout overlays are already propagated (the ctx
// from cp.NewContext).  Call graphs with cycles get conservative
// fingerprints for the procedures on the cycle path (the selection passes
// reject recursion later with the same error as a cold compile).
func fingerprintUnits(ctx *cp.Context, opt Options) *unitFingerprints {
	fps := &unitFingerprints{
		Unit: make(map[*ir.Procedure]string, len(ctx.Prog.Procs)),
		Env:  make(map[*ir.Procedure]string, len(ctx.Prog.Procs)),
	}

	// One buffer carries every canonical rendering: the header's, then
	// each procedure's behind its hash prefix.
	buf := ir.AppendHeader(append(make([]byte, 0, 4096), artifactVersion+"\x00header\x00"...), ctx.Prog)
	h := sha256.New()
	h.Write(buf)
	// Request-supplied parameter overrides resolve through the binding;
	// hash the final values so an override dirties everything it touches.
	names := make([]string, 0, len(ctx.Bind.Params))
	for n := range ctx.Bind.Params {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(h, "%d:%s=%d\x00", len(n), n, ctx.Bind.Params[n])
	}
	writeOptions(h, opt)
	fps.Header = hex.EncodeToString(h.Sum(nil))

	for _, proc := range ctx.Prog.Procs {
		buf = ir.AppendProc(append(buf[:0], artifactVersion+"\x00unit\x00"...), proc)
		sum := sha256.Sum256(buf)
		fps.Unit[proc] = hex.EncodeToString(sum[:])
	}

	// Each procedure's own env contribution (unit hash + overlay
	// rendering) is rendered once and reused from every caller's
	// environment hash — the env loop is O(procs × transitive callees).
	contrib := make(map[string]string, len(ctx.Prog.Procs))
	direct := make(map[string][]string, len(ctx.Prog.Procs))
	for _, proc := range ctx.Prog.Procs {
		contrib[proc.Name] = unitEnvContribution(ctx, fps, proc)
		direct[proc.Name] = directCalls(proc)
	}

	closure := calleeClosure(ctx.Prog, direct)
	for _, proc := range ctx.Prog.Procs {
		eh := sha256.New()
		fmt.Fprintf(eh, "%s\x00env\x00%s\x00", artifactVersion, fps.Header)
		io.WriteString(eh, contrib[proc.Name])
		// Transitive callees in sorted name order: their bodies and
		// overlays determine the entry CPs translated to this
		// procedure's call sites.
		callees := closure[proc.Name]
		sorted := make([]string, 0, len(callees))
		for name := range callees {
			sorted = append(sorted, name)
		}
		sort.Strings(sorted)
		for _, name := range sorted {
			fmt.Fprintf(eh, "callee:%d:%s\x00", len(name), name)
			io.WriteString(eh, contrib[name])
		}
		fps.Env[proc] = hex.EncodeToString(eh.Sum(nil))
	}
	return fps
}

// unitEnvContribution renders one procedure's own contribution to an
// environment fingerprint: its unit hash plus its formal-layout overlay
// (layouts reach formals from call sites, so a caller-side change that
// rebinds a formal must dirty the callee).  Unknown callees contribute
// the empty string, matching a missing procedure.
func unitEnvContribution(ctx *cp.Context, fps *unitFingerprints, proc *ir.Procedure) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "unit:%s\x00", fps.Unit[proc])
	ov := ctx.Overlay[proc]
	formals := make([]string, 0, len(ov))
	for name := range ov {
		formals = append(formals, name)
	}
	sort.Strings(formals)
	for _, name := range formals {
		fmt.Fprintf(&sb, "overlay:%d:%s=%s\x00", len(name), name, layoutDesc(ov[name]))
	}
	return sb.String()
}

// layoutDesc renders a layout's full semantic content (Layout.String
// omits bounds and alignment offsets, which ownership depends on).
// Built with strconv appends — it runs once per (procedure, formal) on
// every compile, warm or cold.
func layoutDesc(l *hpf.Layout) string {
	if l == nil {
		return "<replicated>"
	}
	var sb strings.Builder
	sb.WriteString(l.Name)
	sb.WriteString("|grid=")
	sb.WriteString(l.Grid.Name)
	fmt.Fprintf(&sb, "%v|", l.Grid.Shape)
	for _, d := range l.Dims {
		fmt.Fprintf(&sb, "(%v,g%d,%d:%d,bs%d,off%d)", d.Kind, d.GridDim, d.Lo, d.Hi, d.BlockSz, d.TplOff)
	}
	return sb.String()
}

// directCalls returns the distinct callee names of a procedure in first-
// call order.
func directCalls(proc *ir.Procedure) []string {
	var out []string
	seen := map[string]bool{}
	ir.Walk(proc.Body, func(s ir.Stmt, _ []*ir.Loop) bool {
		if call, ok := s.(*ir.CallStmt); ok && !seen[call.Callee] {
			seen[call.Callee] = true
			out = append(out, call.Callee)
		}
		return true
	})
	return out
}

// calleeClosure maps each procedure name to the set of procedure names
// transitively reachable through its call sites.  Cycles (rejected later
// by the selection passes) terminate via the in-progress guard and yield
// a conservative partial closure.
func calleeClosure(prog *ir.Program, direct map[string][]string) map[string]map[string]bool {
	closure := make(map[string]map[string]bool, len(prog.Procs))
	var visit func(name string, path map[string]bool) map[string]bool
	visit = func(name string, path map[string]bool) map[string]bool {
		if c, ok := closure[name]; ok {
			return c
		}
		if path[name] {
			return nil // recursion: rejected downstream; stop expanding
		}
		path[name] = true
		out := map[string]bool{}
		for _, callee := range direct[name] {
			out[callee] = true
			for n := range visit(callee, path) {
				out[n] = true
			}
		}
		delete(path, name)
		closure[name] = out
		return out
	}
	for _, proc := range prog.Procs {
		visit(proc.Name, map[string]bool{})
	}
	return closure
}

// artifactKey composes the store key for one (procedure, pass-kind)
// artifact: kind tag plus the procedure's environment fingerprint.
func artifactKey(kind, envFP string) string {
	return fmt.Sprintf("%s\x00%s", kind, envFP)
}
