package obs

import (
	"strings"
	"testing"
)

// TestCLIStart pins the shared command setup: no registry unless one is
// asked for, and the exit report written, after its header, by stop.
func TestCLIStart(t *testing.T) {
	reg, stop, err := CLI{Name: "tool"}.Start()
	if err != nil || reg != nil {
		t.Fatalf("CLI{} = %v, %v; want no registry", reg, err)
	}
	stop()

	if reg, stop, err = (CLI{Name: "tool", Always: true}).Start(); err != nil || reg == nil {
		t.Fatalf("CLI{Always} = %v, %v; want a registry", reg, err)
	}
	stop()

	var report strings.Builder
	reg, stop, err = CLI{Name: "tool", Metrics: true, Report: &report, Header: "=== metrics ===\n", DebugAddr: "127.0.0.1:0"}.Start()
	if err != nil || reg == nil {
		t.Fatalf("CLI{Metrics, DebugAddr} = %v, %v; want a registry", reg, err)
	}
	reg.Counter("tool.runs").Inc()
	stop()
	if want := "=== metrics ===\ncounter tool.runs 1\n"; report.String() != want {
		t.Fatalf("report %q, want %q", report.String(), want)
	}

	if _, _, err := (CLI{Name: "tool", DebugAddr: "127.0.0.1:-1"}).Start(); err == nil {
		t.Fatal("a debug address that cannot be bound: want error")
	}
}
