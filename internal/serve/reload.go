package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"pgpub/internal/dataset"
	"pgpub/internal/obs"
	"pgpub/internal/pg"
	"pgpub/internal/query"
	"pgpub/internal/snapshot"
)

// This file is the hot-swap path: POST /v1/admin/reload (pgserve also maps
// SIGHUP onto it) re-opens the release origin and, when its loader accepts
// the content — the next release of the serving chain, or at a
// coordinator a re-validated shard fleet — swaps the serving state
// atomically. The swap is RCU over Server.rel: queries load the pointer
// once and are never blocked by a reload; in-flight requests finish on the
// release they started on; the new release starts with an empty cache and
// singleflight so no stale answer can cross the swap. The old release's memory —
// including a mapped snapshot's pages — is never unmapped while readers may
// hold it; it is simply dropped for the collector (a deliberate, bounded
// retention: one superseded index per reload, reclaimed when the last
// reader lets go, except the mmap itself which stays until exit).
//
// A reload has three outcomes, mirrored in HTTP status and metrics:
//
//	swapped  200  serve.reload.swapped   the next release is live
//	rejected 409  serve.reload.rejected  the source's content is not the
//	              successor of the serving release (or there is no source);
//	              serving is untouched
//	failed   500  serve.reload.errors    the source could not be read;
//	              serving is untouched

// ReleaseData is what Config.Source returns: one loaded release, ready to
// serve. Index is required. CRC and Chain carry the snapshot's identity and
// release-chain block, which Reload validates against the serving release
// before swapping.
type ReleaseData struct {
	Index *query.Index
	Meta  pg.Metadata
	CRC   uint32
	Chain *snapshot.ChainMetadata
}

// ErrReloadRejected marks a reload refused by chain validation (or by the
// absence of a Source): the serving release is untouched and the condition
// is the operator's to fix, not a server fault. handleReload renders it as
// HTTP 409; anything else from Reload is a 500.
var ErrReloadRejected = errors.New("reload rejected")

func rejectf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrReloadRejected}, args...)...)
}

// ReloadResult reports a successful swap.
type ReloadResult struct {
	// Release and CRC identify the now-serving release.
	Release int    `json:"release"`
	CRC     uint32 `json:"crc"`
	// Rows is its published row count.
	Rows int `json:"rows"`
}

// Reload re-reads the serving release's origin and hot-swaps to its
// content, if and only if the origin's loader accepts it. A Config.Source
// accepts only the direct successor of the serving release: numbered one
// higher, naming the serving snapshot's header CRC as its parent. Anything
// else — no source configured, a chainless snapshot, the same release
// still in place, a skipped or foreign release — is rejected with
// ErrReloadRejected and the serving release stays untouched. To catch up
// across several releases, reload them one at a time in order; the strict
// parent link is what keeps a swap from silently skipping a release the
// adversary model has already accounted for. (A Coordinator's loader
// applies the fleet checks instead; see coord.go.)
//
// Reloads serialize among themselves; the query path never waits on one.
func (s *Server) Reload() (*ReloadResult, error) {
	return s.reload(context.Background())
}

func (s *Server) reload(ctx context.Context) (*ReloadResult, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	s.met.reloadAttempts.Inc()
	t0 := time.Now()
	res, err := s.swap(ctx)
	s.met.reloadLatency.Observe(time.Since(t0).Nanoseconds())
	switch {
	case errors.Is(err, ErrReloadRejected):
		s.met.reloadRejected.Inc()
	case err != nil:
		s.met.reloadErrors.Inc()
	default:
		s.met.reloadSwapped.Inc()
	}
	return res, err
}

func (s *Server) swap(ctx context.Context) (*ReloadResult, error) {
	if s.load == nil {
		return nil, rejectf("this server has no snapshot path to reload from (started from a CSV or an in-memory index); restart it on the new release instead")
	}
	next, err := s.load(ctx, s.rel.Load())
	if err != nil {
		return nil, err
	}
	s.install(next)
	return &ReloadResult{Release: next.number, CRC: next.crc, Rows: next.meta.Rows}, nil
}

// sourceLoader is the reload loader of a Config.Source: it accepts the
// source's content only when it is the chain successor of the serving
// release, and wires the accepted index's instruments into reg.
func sourceLoader(source func() (*ReleaseData, error), reg *obs.Registry) func(context.Context, *release) (*release, error) {
	return func(_ context.Context, cur *release) (*release, error) {
		next, err := source()
		if err != nil {
			return nil, fmt.Errorf("serve: reloading release source: %w", err)
		}
		if next.Index == nil {
			return nil, fmt.Errorf("serve: release source returned no index")
		}
		if next.Chain == nil {
			return nil, rejectf("the source snapshot has no release-chain block; only chained releases (pgpublish -base/-delta) can be hot-swapped")
		}
		if cur.crc == 0 {
			return nil, rejectf("the serving release has no snapshot identity (header CRC unknown); restart on the new release instead")
		}
		if next.CRC == cur.crc {
			return nil, rejectf("the source still holds the serving release (release %d, CRC %08x); write the next release over it first", cur.number, cur.crc)
		}
		if want := cur.number + 1; next.Chain.Release != want {
			return nil, rejectf("the source holds release %d, serving release %d wants its successor %d; catch up one release at a time",
				next.Chain.Release, cur.number, want)
		}
		if next.Chain.ParentCRC != cur.crc {
			return nil, rejectf("release %d names parent CRC %08x, the serving snapshot's header CRC is %08x — not a successor of the serving release",
				next.Chain.Release, next.Chain.ParentCRC, cur.crc)
		}
		query.Observe(reg, next.Index)
		return localRelease(next), nil
	}
}

// handleReload is POST /v1/admin/reload: 200 with a ReloadResult on a swap,
// 409 when the loader rejects the origin's content, 500 when the origin
// cannot be read. GET is not allowed — a reload mutates serving state.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if !s.requirePost(w, r) {
		return
	}
	res, err := s.reload(r.Context())
	switch {
	case errors.Is(err, ErrReloadRejected):
		writeJSON(w, http.StatusConflict, errorResponse{Error: err.Error()})
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
	default:
		writeJSON(w, http.StatusOK, res)
	}
}

// SnapshotSource builds a Config.Source that re-opens the snapshot at path —
// the pgserve wiring. mapped picks the depth of the open: OpenMapped (map,
// shallow check) or Load (read into memory, full check). Either way the
// loader adopts the serving index the snapshot stores, and it reads the
// publication, its chain block and its header CRC from one open of the
// file, so a rename between reloads can never pair one file's CRC with
// another's content.
func SnapshotSource(path string, mapped bool) func() (*ReleaseData, error) {
	open := snapshot.Load
	if mapped {
		open = snapshot.OpenMapped
	}
	return func() (*ReleaseData, error) {
		m, err := open(path)
		if err != nil {
			return nil, err
		}
		pub := m.Pub
		return &ReleaseData{
			Index: m.Index,
			Meta: pg.Metadata{
				P: pub.P, K: pub.K, Algorithm: pub.Algorithm.String(), Rows: pub.Len(),
				Guarantee: m.Guarantee,
			},
			CRC:   m.CRC,
			Chain: m.Chain,
		}, nil
	}
}

// OpenCSV opens a release published as CSV (pgpublish -out) — the
// counterpart of SnapshotSource for pgserve -in and pgquery -in. A CSV
// carries the published tuples only, so what the publisher announced comes
// from the metadata file at metaPath (pgpublish -meta): its retention
// probability, k, algorithm and guarantee are served as they are, and the
// CSV is refused unless it holds the announced number of tuples with no G
// below the announced k. A p given as well (>= 0) must equal the announced
// one; a negative p means none. Without a metadata file p must be given,
// k is the smallest G in the file, and the algorithm is left empty: a CSV
// does not say which Phase-2 recoder produced it. The index is built here,
// timed into reg's query.index.build span. The release has no CRC and no
// chain block, so a server on it refuses reloads.
func OpenCSV(schema *dataset.Schema, csvPath, metaPath string, p float64, reg *obs.Registry) (*ReleaseData, error) {
	var meta *pg.Metadata
	if metaPath != "" {
		m, err := readFile(metaPath, pg.ReadMetadata)
		if err != nil {
			return nil, err
		}
		if p >= 0 && p != m.P {
			return nil, fmt.Errorf("serve: -p %v contradicts the retention probability %v that %s announces", p, m.P, metaPath)
		}
		meta, p = &m, m.P
	}
	if p < 0 {
		return nil, fmt.Errorf("serve: a CSV release needs its retention probability (-p) or its metadata file (-meta)")
	}
	pub, err := readFile(csvPath, func(r io.Reader) (*pg.Published, error) { return pg.ReadCSV(schema, r, p) })
	if err != nil {
		return nil, err
	}
	if meta == nil {
		meta = &pg.Metadata{P: p, K: pub.K, Rows: pub.Len()}
	} else if meta.Rows != pub.Len() || pub.K < meta.K {
		return nil, fmt.Errorf("serve: %s holds %d published tuples with smallest G %d; %s announces %d tuples with k=%d",
			csvPath, pub.Len(), pub.K, metaPath, meta.Rows, meta.K)
	}
	ix, err := query.NewIndexObserved(pub, reg)
	if err != nil {
		return nil, err
	}
	return &ReleaseData{Index: ix, Meta: *meta}, nil
}

// readFile opens path and decodes it, buffered, with read.
func readFile[T any](path string, read func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	return read(bufio.NewReader(f))
}
