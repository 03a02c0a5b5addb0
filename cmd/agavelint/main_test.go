package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepositoryIsClean is the gate the CI lint job mirrors: the linter must
// come up empty on its own repository. Every deliberate exception carries an
// //agave:allow directive at the site, so any output here is a regression.
func TestRepositoryIsClean(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := Main([]string{"../.."}, &stdout, &stderr); code != 0 {
		t.Fatalf("agavelint ../.. = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean run printed findings:\n%s", stdout.String())
	}
}

// TestUsage pins the one accepted invocation shape, agavelint [moduledir]:
// any flag or a second argument is a usage error, never a directory named
// "-flags".
func TestUsage(t *testing.T) {
	for _, args := range [][]string{{"-flags"}, {"-V=full"}, {"-list"}, {"a", "b"}} {
		var stdout, stderr bytes.Buffer
		if code := Main(args, &stdout, &stderr); code != 2 {
			t.Errorf("agavelint %v = %d, want 2", args, code)
		}
		if !strings.Contains(stderr.String(), "usage: agavelint [moduledir]") {
			t.Errorf("agavelint %v stderr = %q, want the usage line", args, stderr.String())
		}
	}
}

// writeModule lays out a throwaway module and returns its root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module synthetic\n\ngo 1.23\n"
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestSeededWalltimeViolationFails plants the acceptance scenario: a synthetic
// time.Now inside internal/android must fail the build.
func TestSeededWalltimeViolationFails(t *testing.T) {
	root := writeModule(t, map[string]string{
		"internal/android/clock.go": "package android\n\nimport \"time\"\n\nfunc Stamp() time.Time { return time.Now() }\n",
	})
	var stdout, stderr bytes.Buffer
	if code := Main([]string{root}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "time.Now reads the wall clock") || !strings.Contains(out, "(walltime)") {
		t.Errorf("missing walltime finding in:\n%s", out)
	}
}

// TestSeededMaporderViolationFails plants the other acceptance scenario: an
// unsorted map range accumulating into a slice inside internal/report.
func TestSeededMaporderViolationFails(t *testing.T) {
	root := writeModule(t, map[string]string{
		"internal/report/rows.go": `package report

func Rows(counts map[string]int) []string {
	var rows []string
	for name := range counts {
		rows = append(rows, name)
	}
	return rows
}
`,
	})
	var stdout, stderr bytes.Buffer
	if code := Main([]string{root}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "accumulates in map order") || !strings.Contains(out, "(maporder)") {
		t.Errorf("missing maporder finding in:\n%s", out)
	}
}
