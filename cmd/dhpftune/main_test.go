package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"dhpf"
)

func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	return out.String()
}

var smokeArgs = []string{
	"-bench", "sp", "-n", "12", "-steps", "1", "-procs", "4",
	"-grains", "8", "-topk", "2", "-workers", "2",
}

func TestLeaderboardDeterministicWinner(t *testing.T) {
	first := runOK(t, smokeArgs...)
	if !strings.Contains(first, "winner: ") {
		t.Fatalf("no winner line in:\n%s", first)
	}
	winner := func(out string) string {
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "winner: ") {
				return line
			}
		}
		return ""
	}
	again := runOK(t, smokeArgs...)
	if winner(first) != winner(again) {
		t.Errorf("winner not deterministic: %q vs %q", winner(first), winner(again))
	}
	if !strings.Contains(first, "RANK") || !strings.Contains(first, "block") {
		t.Errorf("leaderboard missing from output:\n%s", first)
	}
}

func TestJSONOutput(t *testing.T) {
	out := runOK(t, append(smokeArgs, "-json")...)
	var res dhpf.TuneResult
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if res.Winner == nil || res.Winner.Status != "ok" {
		t.Fatalf("JSON result has no ok winner: %+v", res.Winner)
	}
	if res.Counters.Candidates == 0 || len(res.Trail) == 0 {
		t.Errorf("counters or trail missing: %+v", res.Counters)
	}
}

func TestEmitOptionsRoundTrips(t *testing.T) {
	// -no-transpose forces a compiled winner, which carries replayable
	// params and options.
	out := runOK(t, append(smokeArgs, "-no-transpose", "-emit-options")...)
	// Decoded the way the server decodes a request body: a field the
	// wire type no longer has would be a 400 on replay, so it is an
	// error here too.
	var frag struct {
		Key     string               `json:"key"`
		Scheme  string               `json:"scheme"`
		Params  map[string]int       `json:"params"`
		Options *dhpf.RequestOptions `json:"options"`
	}
	dec := json.NewDecoder(strings.NewReader(out))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&frag); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if frag.Params["P1"]*frag.Params["P2"] != 4 {
		t.Errorf("winner params do not tile 4 procs: %v", frag.Params)
	}
	opt, err := frag.Options.Resolve()
	if err != nil {
		t.Fatalf("emitted options do not resolve: %v", err)
	}
	if opt.PipelineGrain != 8 {
		t.Errorf("grain not preserved: %+v", opt)
	}
}

// TestBackendsFlag: -backends widens the search across execution
// substrates.  Both backends must show up on the leaderboard (the shm
// twin carries the backend token in its key) and the whole board —
// not just the winner — must be reproducible run to run.
func TestBackendsFlag(t *testing.T) {
	args := append(append([]string{}, smokeArgs...),
		"-backends", "mp,shm", "-grids", "2x2", "-no-transpose", "-json")
	first := runOK(t, args...)
	var res dhpf.TuneResult
	if err := json.Unmarshal([]byte(first), &res); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, first)
	}
	seen := map[string]bool{}
	for _, e := range res.Entries {
		seen[e.Backend] = true
	}
	if !seen[""] && !seen["mp"] {
		t.Errorf("no mp candidate on the leaderboard: %s", first)
	}
	if !seen["shm"] {
		t.Errorf("no shm candidate on the leaderboard: %s", first)
	}
	if res.Winner == nil || res.Winner.Backend != "shm" {
		t.Errorf("shm twin should win on an all-interior stencil, got %+v", res.Winner)
	}
	if !strings.Contains(first, "block shm 2x2") {
		t.Errorf("shm key token missing from board:\n%s", first)
	}
	// Wall clocks and memo counters vary run to run; the ranked board
	// itself (keys, statuses, backends, in order) must not.
	board := func(r dhpf.TuneResult) string {
		var b strings.Builder
		for _, e := range r.Entries {
			fmt.Fprintf(&b, "%d %s %s %s\n", e.Rank, e.Status, e.Key, e.Backend)
		}
		return b.String()
	}
	var res2 dhpf.TuneResult
	if err := json.Unmarshal([]byte(runOK(t, args...)), &res2); err != nil {
		t.Fatal(err)
	}
	if board(res) != board(res2) {
		t.Errorf("backend search not deterministic:\n--- first ---\n%s\n--- again ---\n%s", board(res), board(res2))
	}

	var out, errb bytes.Buffer
	if code := run(append(append([]string{}, smokeArgs...), "-backends", "cuda"), &out, &errb); code != 1 {
		t.Errorf("bad -backends exit = %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "unknown backend") {
		t.Errorf("bad -backends stderr = %q, want mention of unknown backend", errb.String())
	}
}

func TestFlagValidation(t *testing.T) {
	cases := [][]string{
		{},                              // no mode, no procs
		{"-procs", "4"},                 // no mode
		{"-bench", "sp"},                // no procs
		{"-bench", "lu", "-procs", "4"}, // unknown bench
		{"-bench", "sp", "-procs", "4", "-grids", "3y3"}, // bad grid syntax
	}
	for i, args := range cases {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 {
			t.Errorf("case %d (%v): accepted", i, args)
		}
	}
}
