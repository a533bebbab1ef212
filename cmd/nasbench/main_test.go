package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestProjectionText checks the default mode renders both paper tables
// for SP, every column read off the simulator's clock by one rule.
func TestProjectionText(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, []string{"-bench", "sp"}); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	for _, want := range []string{"Table: SP Class A", "Table: SP Class B", "E.dHPF", "I.dHPF",
		"hand, dHPF, PGI: the simulator's clock at one and two steps, T(400) = T(2) + 398·(T(2) − T(1))"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestProjectionJSON checks -json emits one row per (class, procs) pair
// with every column's fields populated.
func TestProjectionJSON(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, []string{"-bench", "sp", "-json", "-procs", "4,9"}); err != nil {
		t.Fatalf("run: %v", err)
	}
	var rows []jsonRow
	if err := json.Unmarshal(out.Bytes(), &rows); err != nil {
		t.Fatalf("output is not a JSON array: %v\n%s", err, out.String())
	}
	if len(rows) != 4 { // 2 classes x 2 proc counts
		t.Fatalf("got %d rows, want 4: %+v", len(rows), rows)
	}
	for _, r := range rows {
		if r.Bench != "sp" || (r.Class != "A" && r.Class != "B") {
			t.Errorf("row misidentified: %+v", r)
		}
		if r.Procs != 4 && r.Procs != 9 {
			t.Errorf("unexpected procs %d", r.Procs)
		}
		if r.HandS == nil || r.DhpfS == nil || r.PgiS == nil || r.EffDhpf == nil || r.EffPgi == nil || r.IdleDhpf == nil {
			t.Errorf("row missing a column: %+v", r)
		}
	}
}

// TestMeasureJSON runs one small table end to end: -n N -steps S
// replaces Classes A and B with one class of that size, through the same
// table path.
func TestMeasureJSON(t *testing.T) {
	var out bytes.Buffer
	err := run(&out, []string{"-bench", "sp", "-json", "-n", "10", "-steps", "1", "-procs", "4"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var rows []jsonRow
	if err := json.Unmarshal(out.Bytes(), &rows); err != nil {
		t.Fatalf("output is not a JSON array: %v\n%s", err, out.String())
	}
	if len(rows) != 1 || rows[0].N != 10 || rows[0].Steps != 1 || rows[0].Procs != 4 {
		t.Fatalf("unexpected rows: %+v", rows)
	}
	if rows[0].HandS == nil || rows[0].DhpfS == nil || rows[0].PgiS == nil || rows[0].EffDhpf == nil {
		t.Errorf("row missing times: %+v", rows[0])
	}
}

// TestBadFlags covers the error surface.
func TestBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, []string{"-procs", "4,x"}); err == nil {
		t.Error("bad -procs accepted")
	}
	if err := run(&out, []string{"-nonsense"}); err == nil {
		t.Error("unknown flag accepted")
	}
}
