package obs

import (
	"fmt"
	"io"
	"os"
)

// CLI is the metrics and debug setup the command-line tools share: a
// -metrics flag asks for the counter/latency report on exit, a -debug-addr
// flag for the debug server.
type CLI struct {
	// Name is the command, the prefix of its stderr lines.
	Name string
	// Always creates the registry even when neither the report nor the
	// debug server asks for one: a server counts its requests regardless.
	Always bool
	// Metrics writes the text report to Report (stderr when nil), after
	// Header, when the command finishes.
	Metrics bool
	Report  io.Writer
	Header  string
	// DebugAddr, when set, serves the debug endpoints on this address.
	DebugAddr string
}

// Start creates the registry — nil unless Always, Metrics or DebugAddr asks
// for one, so a tool stays uninstrumented by default — publishes it as the
// "pgpub" expvar, and starts the debug server, announced on stderr as
// "<Name>: debug server on http://<addr> (...)". The caller defers stop,
// which writes the report and closes the debug server.
func (c CLI) Start() (reg *Registry, stop func(), err error) {
	if c.Always || c.Metrics || c.DebugAddr != "" {
		reg = NewRegistry()
		if err := reg.PublishExpvar("pgpub"); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", c.Name, err)
		}
	}
	var srv *DebugServer
	if c.DebugAddr != "" {
		if srv, err = reg.Serve(c.DebugAddr); err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(os.Stderr, "%s: debug server on http://%s (/metrics, /healthz, /debug/pprof/)\n", c.Name, srv.Addr)
	}
	return reg, func() {
		if c.Metrics {
			w := c.Report
			if w == nil {
				w = os.Stderr
			}
			io.WriteString(w, c.Header)
			reg.WriteText(w)
		}
		srv.Close()
	}, nil
}
