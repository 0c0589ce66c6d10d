package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pgpub/internal/attackfleet"
)

// TestBenchReportRoundTrip pins that PerfReport carries every field of the
// tracked BENCH_pg.json: the writers (pgattack -benchout, pgbench -exp dp
// -benchout) read the file into a PerfReport, replace one block and write it
// back, so a field the struct drops would silently vanish from the others.
func TestBenchReportRoundTrip(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_pg.json")
	if err != nil {
		t.Fatal(err)
	}
	var rep PerfReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Fleet) == 0 || len(rep.Repub) == 0 || rep.DP == nil {
		t.Fatalf("tracked report lost a block: fleet=%d repub=%d dp=%v", len(rep.Fleet), len(rep.Repub), rep.DP != nil)
	}
	out, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(out, '\n'), data) {
		t.Fatal("BENCH_pg.json does not round-trip through PerfReport byte for byte")
	}
}

// trackedReport copies the tracked BENCH_pg.json into a temp dir and
// returns the copy's path, its bytes and its parsed report.
func trackedReport(t *testing.T) (string, []byte, *PerfReport) {
	t.Helper()
	data, err := os.ReadFile("../../BENCH_pg.json")
	if err != nil {
		t.Fatal(err)
	}
	var rep PerfReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_pg.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, data, &rep
}

// TestUpdateReportRefusesDamagedFile pins that a report that cannot be
// parsed is an error and stays byte-identical: rewriting it would keep
// only the block being merged.
func TestUpdateReportRefusesDamagedFile(t *testing.T) {
	path, data, _ := trackedReport(t)
	truncated := data[:len(data)/2]
	if err := os.WriteFile(path, truncated, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := UpdateReport(path, func(r *PerfReport) { r.DP = &DPReport{} }); err == nil {
		t.Fatal("UpdateReport accepted a truncated report")
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, truncated) {
		t.Fatalf("a refused report was rewritten: %d bytes, was %d (%v)", len(got), len(truncated), err)
	}
	// A directory in the report's place cannot be read: also an error.
	if err := UpdateReport(t.TempDir(), func(*PerfReport) {}); err == nil {
		t.Fatal("UpdateReport on a directory: want error")
	}
}

// TestUpdateReportMerges pins the merge: re-storing the tracked entries
// gives the same bytes; a fleet entry replaces only the one with its (n,
// algorithm, shards) and leaves the repub and dp blocks alone; a new key
// lands in key order; and a missing file starts an empty report.
func TestUpdateReportMerges(t *testing.T) {
	path, data, before := trackedReport(t)
	if err := UpdateReport(path, func(r *PerfReport) {
		for _, f := range before.Fleet {
			r.PutFleet(f)
		}
		for _, m := range before.Repub {
			r.PutRepub(m)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, data) {
		t.Fatal("re-storing the tracked entries changed the report's bytes")
	}

	old := before.Fleet[len(before.Fleet)-1]
	repl := &attackfleet.Report{N: old.N, Algorithm: old.Algorithm, Shards: old.Shards, Victims: old.Victims + 1}
	added := &attackfleet.Report{N: 1, Algorithm: "tds"}
	for _, rep := range []*attackfleet.Report{repl, added} {
		if err := UpdateReport(path, func(r *PerfReport) { r.PutFleet(rep) }); err != nil {
			t.Fatal(err)
		}
	}
	var after PerfReport
	got, _ := os.ReadFile(path)
	if err := json.Unmarshal(got, &after); err != nil {
		t.Fatal(err)
	}
	want := append([]*attackfleet.Report{added}, before.Fleet[:len(before.Fleet)-1]...)
	want = append(want, repl)
	if !reflect.DeepEqual(after.Fleet, want) {
		t.Fatalf("fleet block after the merges:\n%+v\nwant\n%+v", after.Fleet, want)
	}
	if !reflect.DeepEqual(after.Repub, before.Repub) || !reflect.DeepEqual(after.DP, before.DP) {
		t.Fatal("a fleet merge changed the repub or dp block")
	}

	fresh := filepath.Join(t.TempDir(), "new.json")
	if err := UpdateReport(fresh, func(r *PerfReport) { r.PutFleet(added) }); err != nil {
		t.Fatal(err)
	}
	var rep PerfReport
	if got, err := os.ReadFile(fresh); err != nil || json.Unmarshal(got, &rep) != nil ||
		!reflect.DeepEqual(rep, PerfReport{Fleet: []*attackfleet.Report{added}}) {
		t.Fatalf("a missing report started as %+v (%v), want just the merged entry", rep, err)
	}
}
