package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// Every flag set explicitly must apply in the mode the flags choose; one
// that does not is rejected by name instead of being silently ignored.
func TestParseFlagsRejectsFlagsTheModeIgnores(t *testing.T) {
	const coord = "-coordinator -manifest r.pgman -shard-urls http://a,http://b"
	for _, tc := range []struct {
		args string
		bad  string // the rejected flag; "" means the flags are accepted
	}{
		// The invocations the docs and the end-to-end test use.
		{"-snapshot r.pgsnap -addr 127.0.0.1:8931", ""},
		{"-snapshot r.pgsnap -mmap -addr 127.0.0.1:8932", ""},
		{"-snapshot r.pgsnap -dp-budgets b.txt -dp-seed 7 -debug-addr :6060", ""},
		{"-in anon.csv -p 0.3 -meta m.json -cache 10 -timeout 1s -max-inflight 4", ""},
		{coord + " -addr 127.0.0.1:8939", ""},
		{coord + " -shard-timeout 2s -hedge -1ms -dp-budgets b.txt -drain 5s -metrics", ""},

		// Server-only flags at the coordinator.
		{coord + " -max-inflight 8", "max-inflight"},
		{coord + " -timeout 1s", "timeout"},
		{coord + " -cache 0", "cache"},
		{coord + " -mmap", "mmap"},
		{coord + " -p 0.3", "p"},
		{coord + " -meta m.json", "meta"},
		{coord + " -snapshot r.pgsnap", "snapshot"},
		{coord + " -in anon.csv", "in"},

		// Coordinator-only flags on a server.
		{"-snapshot r.pgsnap -shard-timeout 1s", "shard-timeout"},
		{"-snapshot r.pgsnap -hedge 10ms", "hedge"},
		{"-in anon.csv -p 0.3 -manifest r.pgman", "manifest"},
		{"-shard-urls http://a", "shard-urls"},

		// Flags of the other data source.
		{"-snapshot r.pgsnap -p 0.3", "p"},
		{"-snapshot r.pgsnap -in anon.csv", "in"},
		{"-in anon.csv -p 0.3 -mmap", "mmap"},
	} {
		fs := flag.NewFlagSet("pgserve", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		_, err := parseFlags(fs, strings.Fields(tc.args))
		switch {
		case tc.bad == "" && err != nil:
			t.Errorf("%q: %v", tc.args, err)
		case tc.bad != "" && (err == nil || !strings.HasPrefix(err.Error(), "-"+tc.bad+" ")):
			t.Errorf("%q: error %v, want one naming -%s", tc.args, err, tc.bad)
		}
	}
}

// Every flag the mode table names is a defined flag, so a renamed flag
// cannot leave a stale entry behind.
func TestFlagModesNameDefinedFlags(t *testing.T) {
	fs := flag.NewFlagSet("pgserve", flag.ContinueOnError)
	if _, err := parseFlags(fs, nil); err != nil {
		t.Fatal(err)
	}
	for name := range flagModes {
		if fs.Lookup(name) == nil {
			t.Errorf("flagModes names undefined flag -%s", name)
		}
	}
}
