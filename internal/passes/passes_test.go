package passes_test

import (
	"os"
	"strings"
	"testing"

	"dhpf/internal/passes"
)

func lhsy(t *testing.T) string {
	t.Helper()
	src, err := os.ReadFile("../../testdata/lhsy.hpf")
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

func TestPipelineRunsEveryPass(t *testing.T) {
	opt := passes.DefaultOptions()
	cc := &passes.CompileContext{Source: lhsy(t), Opt: opt}
	if err := passes.Run(cc); err != nil {
		t.Fatal(err)
	}
	names := passes.PassNames()
	if len(cc.Stats) != len(names) {
		t.Fatalf("got %d stats, want %d", len(cc.Stats), len(names))
	}
	for i, s := range cc.Stats {
		if s.Name != names[i] {
			t.Errorf("stat %d is %s, want %s", i, s.Name, names[i])
		}
	}
	if cc.Sel == nil || cc.Comm == nil || cc.Grid == nil {
		t.Fatal("pipeline left context incomplete")
	}
}

func TestDisableRemovesPass(t *testing.T) {
	opt := passes.DefaultOptions().WithDisabled(passes.PassAvailability)
	cc := &passes.CompileContext{Source: lhsy(t), Opt: opt}
	if err := passes.Run(cc); err != nil {
		t.Fatal(err)
	}
	for _, s := range cc.Stats {
		if s.Name == passes.PassAvailability {
			t.Fatal("disabled pass still ran")
		}
	}
}

func TestDisableValidation(t *testing.T) {
	if _, err := passes.BuildPipeline(passes.DefaultOptions().WithDisabled("no-such-pass")); err == nil {
		t.Fatal("unknown pass name accepted")
	}
	if _, err := passes.BuildPipeline(passes.DefaultOptions().WithDisabled(passes.PassCPSelect)); err == nil {
		t.Fatal("core pass disable accepted")
	}
}

func TestInstrumentCollectsVolumes(t *testing.T) {
	opt := passes.DefaultOptions()
	opt.Instrument = true
	cc := &passes.CompileContext{Source: lhsy(t), Opt: opt}
	if err := passes.Run(cc); err != nil {
		t.Fatal(err)
	}
	measured := 0
	for _, s := range cc.Stats {
		if s.Measured {
			measured++
		}
	}
	if measured == 0 {
		t.Fatal("no pass measured communication volume under Instrument")
	}
	table := passes.StatsTable(cc.Stats)
	for _, name := range passes.PassNames() {
		if !strings.Contains(table, name) {
			t.Errorf("stats table missing pass %s", name)
		}
	}
}

func TestEntryCPsRecordedAfterInterproc(t *testing.T) {
	cc := &passes.CompileContext{Source: lhsy(t), Opt: passes.DefaultOptions()}
	if err := passes.Run(cc); err != nil {
		t.Fatal(err)
	}
	for _, proc := range cc.IR.Procs {
		if _, ok := cc.Sel.Entry[proc.Name]; !ok {
			t.Errorf("proc %s has no entry CP record after interproc pass", proc.Name)
		}
	}
}
