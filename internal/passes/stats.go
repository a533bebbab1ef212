package passes

import (
	"fmt"
	"strings"
	"time"

	"dhpf/internal/comm"
	"dhpf/internal/sched"
)

// Stat is one pass's instrumentation record.
type Stat struct {
	Name string
	Wall time.Duration
	// Summary is the pass's one-line decision digest ("14 stmt CPs, 1
	// pair marked"); Notes are its individual decisions, in the order
	// they were made.
	Summary string
	Notes   []string
	// With Options.Instrument: the fully-vectorized communication plan
	// the program would need as of the end of this pass.  Measured is
	// false for front-end passes that run before a CP selection exists
	// (no plan can be probed yet); HasDelta once a previous pass was also
	// measured, making DeltaBytes = Bytes − previous pass's Bytes.
	Measured   bool
	Msgs       int64
	Bytes      int64
	HasDelta   bool
	DeltaBytes int64
	// Cached marks a pass whose per-procedure work was satisfied entirely
	// from the artifact store (no procedure was re-analyzed); the pass
	// body records it.  Always false without a store, where every
	// procedure is dirty.
	Cached bool
}

// probe is one communication-volume measurement.
type probe struct {
	msgs, bytes int64
}

// measureComm computes the whole-program fully-vectorized transfer plan
// under the current selection: the pipeline's "communication volume so
// far".  Before the communication passes run, events are built
// ephemerally from the current CPs; afterwards the pipeline's own plan
// (with its eliminations) is measured.  Returns ok=false until a CP
// selection exists.
func measureComm(cc *CompileContext) (probe, bool) {
	if cc.Ctx == nil || cc.Sel == nil {
		return probe{}, false
	}
	var p probe
	grid, err := cc.Ctx.Grid()
	if err != nil {
		return p, true
	}
	planner := sched.Planner{Ctx: cc.Ctx, Sel: cc.Sel, Grid: grid}
	zero := sched.Point{Bind: cc.Ctx.Bind.Params}
	for _, proc := range cc.IR.Procs {
		a := cc.Comm[proc.Name]
		if a == nil {
			a = comm.BuildEvents(cc.Ctx, proc, cc.Sel)
		}
		// Reads coalesce with reads and write-backs with write-backs.
		var byKind [2][]*comm.Event
		for _, e := range a.Live() {
			byKind[e.Kind] = append(byKind[e.Kind], e)
		}
		for _, events := range byKind {
			for _, t := range planner.Plan(proc, events, zero) {
				p.msgs++
				p.bytes += t.Bytes()
			}
		}
	}
	return p, true
}

// StatsTable renders the per-pass records as the table cmd/dhpfc
// -explain prints: pass name, wall time, message count, bytes, byte
// delta vs the previous measured pass, and the decision summary.
// Unmeasured cells print "-".
func StatsTable(stats []Stat) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %10s %8s %12s %12s  %s\n", "pass", "time", "msgs", "bytes", "Δbytes", "decisions")
	for _, s := range stats {
		msgs, bytes, delta := "-", "-", "-"
		if s.Measured {
			msgs = fmt.Sprintf("%d", s.Msgs)
			bytes = fmt.Sprintf("%d", s.Bytes)
			if s.HasDelta {
				delta = fmt.Sprintf("%+d", s.DeltaBytes)
			}
		}
		wall := fmtWall(s.Wall)
		if s.Cached {
			wall = "cached"
		}
		fmt.Fprintf(&b, "%-14s %10s %8s %12s %12s  %s\n",
			s.Name, wall, msgs, bytes, delta, s.Summary)
	}
	return b.String()
}

func fmtWall(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
}
