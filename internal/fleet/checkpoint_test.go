package fleet

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeCheckpoint(t *testing.T, lines ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fleet.ckpt")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func header(hash string) string {
	return fmt.Sprintf(`{"format":"agave-fleet-checkpoint/1","plan_hash":%q,"runs":24,"shards":5,"shard_size":5}`+"\n", hash)
}

func wantHeader(hash string) Header {
	return Header{PlanHash: hash, Runs: 24, Shards: 5, ShardSize: 5}
}

const goodRecord = `{"shard":0,"lines":5,"digest":"` +
	"0000000000000000000000000000000000000000000000000000000000000000" + `","cells":[]}` + "\n"

// TestCheckpointStalePlanHash pins the exact stale-hash error text: an
// operator resuming against the wrong plan must be told what happened and
// what to do.
func TestCheckpointStalePlanHash(t *testing.T) {
	path := writeCheckpoint(t, header("aaaa"))
	_, _, err := OpenCheckpoint(path, wantHeader("bbbb"))
	if err == nil {
		t.Fatal("stale plan hash accepted")
	}
	want := fmt.Sprintf("checkpoint %s: stale plan hash aaaa (current plan is bbbb); the checkpoint belongs to a different plan — delete it or rerun that plan", path)
	if err.Error() != want {
		t.Fatalf("error = %q\nwant    %q", err, want)
	}
}

// TestCheckpointCorrupt pins the corrupt-header and corrupt-record error
// prefixes.
func TestCheckpointCorrupt(t *testing.T) {
	path := writeCheckpoint(t, "not json\n")
	_, _, err := OpenCheckpoint(path, wantHeader("h"))
	if err == nil || !strings.HasPrefix(err.Error(), fmt.Sprintf("checkpoint %s: corrupt header:", path)) {
		t.Fatalf("corrupt header error = %v", err)
	}

	path = writeCheckpoint(t, header("h"), "garbage record\n")
	_, _, err = OpenCheckpoint(path, wantHeader("h"))
	if err == nil || !strings.HasPrefix(err.Error(), fmt.Sprintf("checkpoint %s: corrupt record at line 2:", path)) {
		t.Fatalf("corrupt record error = %v", err)
	}

	path = writeCheckpoint(t, header("h"), goodRecord, goodRecord)
	_, _, err = OpenCheckpoint(path, wantHeader("h"))
	if err == nil || !strings.Contains(err.Error(), "shard 0 recorded twice") {
		t.Fatalf("duplicate record error = %v", err)
	}

	path = writeCheckpoint(t, header("h"), `{"shard":9,"lines":5,"digest":"00","cells":[]}`+"\n")
	_, _, err = OpenCheckpoint(path, wantHeader("h"))
	if err == nil || !strings.Contains(err.Error(), "shard 9 out of range") {
		t.Fatalf("out-of-range record error = %v", err)
	}

	// Records the ordered merge cannot fold: Restore would nil-dereference
	// a null cell, and Cell.merge's binary search folds metrics that are
	// out of name order, or repeated, silently wrong.
	metric := func(name string) string {
		return fmt.Sprintf(`{"name":%q,"n":1,"sum":1,"min":1,"max":1}`, name)
	}
	cell := func(metrics ...string) string {
		return `{"unit":"alpha","ablation":"base","runs":1,"metrics":[` + strings.Join(metrics, ",") + `]}`
	}
	for _, tc := range []struct{ cells, want string }{
		{`[null]`, "cell 0 is null"},
		{`[` + cell(metric("a")) + `,null]`, "cell 1 is null"},
		{`[` + cell(metric("b"), metric("a")) + `]`, `cell 0: metric "a" does not sort strictly after "b"`},
		{`[` + cell(metric("a"), metric("a")) + `]`, `cell 0: metric "a" does not sort strictly after "a"`},
	} {
		record := strings.Replace(goodRecord, `"cells":[]`, `"cells":`+tc.cells, 1)
		path = writeCheckpoint(t, header("h"), record)
		partials, cp, err := OpenCheckpoint(path, wantHeader("h"))
		if err == nil {
			cp.Close()
			a := NewAggregator(24, 5, "h")
			for _, p := range partials {
				a.Restore(p)
			}
			t.Fatalf("record with cells %s accepted", tc.cells)
		}
		want := fmt.Sprintf("checkpoint %s: corrupt record at line 2: %s", path, tc.want)
		if err.Error() != want {
			t.Errorf("error = %q\nwant    %q", err, want)
		}
	}
}

// TestCheckpointTornTailTolerated pins crash-safety: a final line without a
// trailing newline is the signature of a SIGKILL mid-append, so it is
// dropped (the shard reruns) rather than poisoning the journal, and the
// next append lands on a clean line boundary.
func TestCheckpointTornTailTolerated(t *testing.T) {
	path := writeCheckpoint(t, header("h"), goodRecord, `{"shard":1,"lines":5,"dig`)
	partials, cp, err := OpenCheckpoint(path, wantHeader("h"))
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	if len(partials) != 1 || partials[0].Shard != 0 {
		t.Fatalf("partials = %+v, want only shard 0", partials)
	}
	if err := cp.Append(&ShardResult{Shard: 1, Lines: 5, Digest: Digest{}.Hex()}); err != nil {
		t.Fatal(err)
	}
	// Reopen: the torn tail must be gone and the new record intact.
	partials, cp2, err := OpenCheckpoint(path, wantHeader("h"))
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	if len(partials) != 2 || partials[1].Shard != 1 {
		t.Fatalf("after truncate+append, partials = %+v", partials)
	}
}

func TestCheckpointGeometryMismatch(t *testing.T) {
	path := writeCheckpoint(t, header("h"))
	want := wantHeader("h")
	want.ShardSize = 3
	want.Shards = 8
	_, _, err := OpenCheckpoint(path, want)
	if err == nil || !strings.Contains(err.Error(), "shard geometry mismatch") {
		t.Fatalf("geometry mismatch error = %v", err)
	}
}
