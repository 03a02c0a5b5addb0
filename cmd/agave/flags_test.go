package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// simulationFlags are the flags every simulating subcommand reads.
var simulationFlags = []string{"duration", "warmup", "seed", "nojit", "dirtyrect"}

var genFlagNames = []string{"gen-scenarios", "gen-seed", "gen-apps", "gen-events", "gen-pressure", "gen-inputs", "gen-faults"}

// wantFlags is the flag set of each subcommand: exactly the flags it reads.
var wantFlags = func() map[string][]string {
	with := func(base []string, extra ...string) []string {
		return append(append([]string(nil), base...), extra...)
	}
	plan := with(simulationFlags, append([]string{"bench", "minfree", "seeds", "ablations", "scenarios", "json", "scenario-dir"}, genFlagNames...)...)
	return map[string][]string{
		"list":     nil,
		"run":      simulationFlags,
		"fig1":     with(simulationFlags, "bench", "format"),
		"fig2":     with(simulationFlags, "bench", "format"),
		"fig3":     with(simulationFlags, "bench", "format"),
		"fig4":     with(simulationFlags, "bench", "format"),
		"all":      with(simulationFlags, "bench", "format"),
		"table1":   with(simulationFlags, "bench"),
		"scalars":  with(simulationFlags, "bench"),
		"suite":    with(plan, "parallel"),
		"scenario": with(simulationFlags, "minfree", "parallel", "seeds", "ablations", "json", "list", "file", "export"),
		"fleet":    with(plan, "workers", "shard-size", "checkpoint", "worker"),
	}
}()

// commandPrefix is the leading argv of a subcommand: run takes its
// benchmark positionally before any flag.
func commandPrefix(cmd string) []string {
	if cmd == "run" {
		return []string{"run", "countdown.main"}
	}
	return []string{cmd}
}

var helpFlagLine = regexp.MustCompile(`^  -([a-z-]+)`)

// flagsOf reports the flags subcommand cmd defines, read from its -h output.
func flagsOf(t *testing.T, cmd string) []string {
	t.Helper()
	code, _, errOut := invoke(t, append(commandPrefix(cmd), "-h")...)
	if code != 2 {
		t.Errorf("%s -h: code=%d, want 2", cmd, code)
	}
	var flags []string
	for _, line := range strings.Split(errOut, "\n") {
		if m := helpFlagLine.FindStringSubmatch(line); m != nil {
			flags = append(flags, m[1])
		}
	}
	sort.Strings(flags)
	return flags
}

// TestSubcommandFlagSets: each subcommand defines exactly the flags it
// reads, and -h lists only those.
func TestSubcommandFlagSets(t *testing.T) {
	pairs := 0
	for cmd, want := range wantFlags {
		want = append([]string(nil), want...)
		sort.Strings(want)
		got := flagsOf(t, cmd)
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s flags:\n got  %v\n want %v", cmd, got, want)
		}
		pairs += len(got)
	}
	if pairs != 108 {
		t.Errorf("accepted (subcommand, flag) pairs = %d, want 108", pairs)
	}
}

// TestForeignFlagsRejected: a flag defined on some other subcommand but not
// on this one is a usage error naming the flag, never silently ignored.
func TestForeignFlagsRejected(t *testing.T) {
	defined := make(map[string]map[string]bool)
	all := make(map[string]bool)
	for cmd := range wantFlags {
		defined[cmd] = make(map[string]bool)
		for _, f := range flagsOf(t, cmd) {
			defined[cmd][f] = true
			all[f] = true
		}
	}
	type row struct {
		args []string
		flag string
	}
	// Invocations that ran to completion, ignoring the flag, when every
	// subcommand parsed one shared flag set.
	rows := []row{
		{append([]string{"run", "countdown.main", "-bench", "401.bzip2"}, quick...), "bench"},
		{append([]string{"scenario", "commute", "-scenarios", "memory-storm"}, quick...), "scenarios"},
		{append([]string{"fig1", "-bench", "countdown.main", "-ablations"}, quick...), "ablations"},
		{append([]string{"run", "countdown.main", "-seeds", "1,2"}, quick...), "seeds"},
		{append([]string{"scalars", "-bench", "countdown.main", "-json"}, quick...), "json"},
		{append([]string{"suite", "-bench", "countdown.main", "-format", "csv"}, quick...), "format"},
		{append([]string{"fleet", "-bench", "countdown.main", "-list"}, quick...), "list"},
		{append([]string{"run", "countdown.main", "-minfree", "5"}, quick...), "minfree"},
		{[]string{"list", "-bogus"}, "bogus"},
	}
	for cmd := range wantFlags {
		for f := range all {
			if !defined[cmd][f] {
				rows = append(rows, row{append(commandPrefix(cmd), "-"+f), f})
			}
		}
	}
	for _, r := range rows {
		code, _, errOut := invoke(t, r.args...)
		if code != 2 || !strings.Contains(errOut, "flag provided but not defined: -"+r.flag+"\n") {
			t.Errorf("%v: code=%d stderr=%.120q", r.args, code, errOut)
		}
	}
}

// ciCommandLines extracts every agave command line of the CI workflow:
// backslash continuations joined, redirections and job control cut off.
func ciCommandLines(t *testing.T) [][]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	text := regexp.MustCompile(`\\\n\s*`).ReplaceAllString(string(data), "")
	var lines [][]string
	for _, m := range regexp.MustCompile(`(?:go run \./cmd/agave|/tmp/agave) ([a-z][^\n>&|]*)`).FindAllStringSubmatch(text, -1) {
		lines = append(lines, strings.Fields(m[1]))
	}
	return lines
}

// TestCallerCommandLinesParse: every command line the CI workflow and the
// agavebench workloads run still parses and succeeds (at tiny durations,
// appended last so they override), so no caller loses a flag it passes.
func TestCallerCommandLinesParse(t *testing.T) {
	dir := t.TempDir()
	doc := filepath.Join(dir, "session.json")
	code, exported, errOut := invoke(t, "scenario", "-export", "commute")
	if code != 0 {
		t.Fatalf("export: code=%d stderr=%q", code, errOut)
	}
	if err := os.WriteFile(doc, []byte(exported), 0o644); err != nil {
		t.Fatal(err)
	}
	ci := ciCommandLines(t)
	if len(ci) < 8 {
		t.Fatalf("found %d agave command lines in ci.yml, want at least 8: %v", len(ci), ci)
	}
	lines := append([][]string(nil), ci...)
	// The agavebench workload shapes (agavebench/workload.go): paperSuite,
	// denseSession and fleetChaos.
	lines = append(lines,
		[]string{"all", "-duration", "80", "-warmup", "60", "-seed", "1", "-bench", "countdown.main"},
		[]string{"scenario", "-file", doc, "-duration", "80", "-warmup", "60", "-seed", "1"},
		[]string{"fleet", "-workers", "0", "-shard-size", "4", "-checkpoint", "fleet.ckpt",
			"-bench", "countdown.main", "-gen-scenarios", "2", "-gen-seed", "3", "-gen-apps", "3",
			"-gen-faults", "2", "-gen-inputs", "4", "-gen-pressure", "1",
			"-duration", "80", "-warmup", "60", "-seed", "3"},
		[]string{"fig1", "-bench", "countdown.main", "-format", "csv"},
		[]string{"table1", "-bench", "countdown.main"},
		[]string{"scalars", "-bench", "countdown.main"},
	)
	for i, args := range lines {
		args = append([]string(nil), args...)
		for j := range args {
			// Keep checkpoint journals out of the source tree.
			if j > 0 && args[j-1] == "-checkpoint" {
				args[j] = filepath.Join(dir, fmt.Sprintf("%d-%s", i, args[j]))
			}
		}
		args = append(args, "-duration", "60", "-warmup", "40")
		code, out, errOut := invoke(t, args...)
		if code != 0 || out == "" {
			t.Errorf("%v: code=%d stderr=%q", args, code, errOut)
		}
	}
}
