package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
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
