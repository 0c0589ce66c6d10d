// Package pg implements perturbed generalization (PG), the contribution of
// the paper (Section IV): a three-phase anonymization pipeline that combines
// uniform perturbation of the sensitive attribute (Phase 1), k-anonymous
// global recoding of the QI attributes (Phase 2), and stratified sampling of
// one tuple per QI-group augmented with the group size G (Phase 3). The
// published table D* satisfies the Cardinality constraint |D*| <= |D|·s with
// k = ceil(1/s), and the privacy guarantees of Theorems 1–3.
//
// Generalized QI vectors are represented as axis-aligned boxes over the QI
// code space (generalize.Box). All Phase-2 algorithms emit pairwise-disjoint
// boxes (Property G3), so the crucial tuple of a linking attack is unique
// (step A1).
package pg

import (
	"fmt"

	"pgpub/internal/dataset"
	"pgpub/internal/generalize"
	"pgpub/internal/hierarchy"
	"pgpub/internal/obs"
	"pgpub/internal/par"
	"pgpub/internal/perturb"
	"pgpub/internal/privacy"
	"pgpub/internal/sampling"
)

// Algorithm selects the Phase-2 recoding algorithm.
type Algorithm int

const (
	// KD is Mondrian-style strict partitioning [16] publishing kd-cells:
	// multidimensional recoding with disjoint cells (G3 holds) and groups
	// near the minimal size k. It is the default and what the evaluation
	// harness uses.
	KD Algorithm = iota
	// TDS is top-down specialization [11], the algorithm the paper adapts.
	// Single-dimensional global recoding; groups can stay far above k on
	// smooth data (see DESIGN.md §3), which costs utility.
	TDS
	// FullDomain is the Incognito-style level-lattice search [13].
	FullDomain
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case TDS:
		return "tds"
	case FullDomain:
		return "full-domain"
	case KD:
		return "kd"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm is String's inverse: it resolves the names release
// metadata and command-line flags use ("kd", "tds", "full-domain").
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "kd":
		return KD, nil
	case "tds":
		return TDS, nil
	case "full-domain":
		return FullDomain, nil
	default:
		return 0, fmt.Errorf("pg: unknown algorithm %q (want kd, tds or full-domain)", s)
	}
}

// Config parameterizes a PG publication. It has no parallelism setting:
// Publish sizes its sharded phases from runtime.GOMAXPROCS, and the
// published table is byte-identical at every value for a fixed Seed — shard
// RNG streams are derived from the root seed with par.SplitSeed, never from
// the schedule.
type Config struct {
	// K is the QI-group size floor (Property G2), at least 1. A
	// Cardinality target s in (0,1] (|D*| <= |D|·s) is met by
	// K = ceil(1/s).
	K int
	// P is the retention probability of Phase 1 in [0,1]. Use
	// privacy.MaxRetentionRho12 / MaxRetentionDelta to derive it from a
	// target guarantee level.
	P float64
	// Algorithm selects the Phase-2 recoding algorithm (default KD).
	Algorithm Algorithm
	// Seed is the root of every random stream of the pipeline. A caller
	// publishing repeatedly from one *rand.Rand passes Seed: rng.Int63().
	Seed int64
	// Metrics optionally receives the pipeline's runtime instrumentation:
	// per-phase wall-clock histograms (pg.phase1/2/3, pg.publish), row and
	// group counters, and the Phase-2 algorithms' internal diagnostics (see
	// docs/OBSERVABILITY.md for the full vocabulary). nil — the default —
	// disables instrumentation at the cost of one branch per call site; all
	// counter values are worker-count-invariant, like the output itself.
	Metrics *obs.Registry
}

// Row is one published tuple of D*: the generalized QI box, the observed —
// possibly perturbed — sensitive value y, and the source QI-group size G
// (step S3). It is a copy of one row (see RowColumns.Row and FindCrucial),
// not a second way to store D*.
type Row struct {
	Box   generalize.Box
	Value int32
	G     int

	// SourceRow is the microdata row the tuple descends from. It is a
	// diagnostic for attack simulation and testing — a real release must
	// not include it (WriteCSV omits it).
	SourceRow int
}

// Published is the anonymized table D* together with the publication
// metadata a data consumer legitimately knows: the schema, the retention
// probability P (required for reconstruction-based mining), the group-size
// floor K, and the Phase-2 algorithm. Recoding is non-nil for the cut-based
// algorithms (TDS, FullDomain) and nil for KD. The rows are stored as
// columns only (see Columns). Build a publication with Publish, ReadCSV,
// Merge or FromColumns; a Published literal carries metadata and no rows.
type Published struct {
	Schema    *dataset.Schema
	Algorithm Algorithm
	Recoding  *generalize.Recoding
	P         float64
	K         int

	cols *RowColumns
}

// Publish runs Phases 1–3 on the microdata and returns D*. Phase 1 and
// Phase 3 are sharded across GOMAXPROCS goroutines, KD recursion fans out
// to match, and the TDS/FullDomain per-group recoding application is spread
// the same way.
func Publish(d *dataset.Table, hiers []*hierarchy.Hierarchy, cfg Config) (*Published, error) {
	if d.Len() == 0 {
		return nil, fmt.Errorf("pg: empty microdata")
	}
	if cfg.K < 1 {
		return nil, fmt.Errorf("pg: group size floor k = %d < 1", cfg.K)
	}
	if cfg.P < 0 || cfg.P > 1 {
		return nil, fmt.Errorf("pg: retention probability %v outside [0,1]", cfg.P)
	}
	workers := par.N(0)
	met := cfg.Metrics
	spTotal := met.Span("pg.publish")
	met.Counter("pg.publish.calls").Inc()
	met.Counter("pg.rows.in").Add(int64(d.Len()))
	// The root seed fixes every random stream of the pipeline. Per-phase
	// roots are split off it, and each phase splits per-shard seeds off its
	// root, so the streams depend only on (root, shard index) — running the
	// shards on one goroutine or sixteen cannot change the output bytes.
	phase1Root := par.SplitSeed(cfg.Seed, 0)
	phase3Root := par.SplitSeed(cfg.Seed, 1)

	// Phase 1: perturbation, sharded across the workers.
	pb, err := perturb.NewPerturber(cfg.P, d.Schema.SensitiveDomain())
	if err != nil {
		return nil, err
	}
	pb.Retained = met.Counter("pg.phase1.retained")
	pb.Redrawn = met.Counter("pg.phase1.redrawn")
	sp1 := met.Span("pg.phase1")
	dp, err := pb.TableSharded(d, phase1Root, workers)
	if err != nil {
		return nil, err
	}
	sp1.End()

	// Phase 2: generalization (global recoding, Properties G1–G3).
	sp2 := met.Span("pg.phase2")
	grp, err := runPhase2(dp, hiers, cfg, workers)
	if err != nil {
		return nil, err
	}
	sp2.End()
	met.Counter("pg.phase2.groups").Add(int64(len(grp.groupRows)))

	// Phase 3: stratified sampling (S1–S4), sharded across the workers.
	sp3 := met.Span("pg.phase3")
	strata, err := sampling.StratifiedSeeded(grp.groupRows, phase3Root, workers)
	if err != nil {
		return nil, fmt.Errorf("pg: phase 3: %w", err)
	}
	n, dim := len(strata), d.Schema.D()
	cols := newRowColumns(n, dim)
	for i, st := range strata {
		box := grp.boxes[st.Group]
		for j := 0; j < dim; j++ {
			cols.Lo[j*n+i] = box.Lo[j]
			cols.Hi[j*n+i] = box.Hi[j]
		}
		cols.Value[i] = dp.Sensitive(st.Row)
		cols.G[i] = int64(st.GroupSize)
		cols.SourceRow[i] = int64(st.Row)
	}
	pub, err := FromColumns(Published{
		Schema: d.Schema, Algorithm: cfg.Algorithm, Recoding: grp.recoding, P: cfg.P, K: cfg.K,
	}, cols)
	if err != nil {
		return nil, err
	}
	sp3.End()
	met.Counter("pg.rows.published").Add(int64(n))
	spTotal.End()
	return pub, nil
}

// phase2Grouping is Phase 2's output: the recoding (nil for KD), one
// generalized box per QI-group, and each group's member rows. For KD and
// FullDomain it is a pure function of the QI columns, k and the algorithm —
// Phase 1 never touches the QI attributes — so an adversary who knows the
// algorithm can replay it on the public QI values (docs/ATTACKS.md). A TDS
// grouping is not: TDS scores its cuts on the perturbed sensitive values, so
// it changes with the Phase-1 seed.
type phase2Grouping struct {
	recoding  *generalize.Recoding
	boxes     []generalize.Box
	groupRows [][]int
}

// runPhase2 runs the configured Phase-2 algorithm over the (perturbed)
// table and packages its grouping.
func runPhase2(dp *dataset.Table, hiers []*hierarchy.Hierarchy, cfg Config, workers int) (*phase2Grouping, error) {
	met := cfg.Metrics
	switch cfg.Algorithm {
	case TDS:
		res, err := generalize.TDS(dp, hiers, generalize.TDSConfig{K: cfg.K, Metrics: met})
		if err != nil {
			return nil, fmt.Errorf("pg: phase 2: %w", err)
		}
		return &phase2Grouping{
			recoding:  res.Recoding,
			boxes:     applyRecoding(res.Recoding, res.Groups.Keys, workers),
			groupRows: res.Groups.Rows,
		}, nil
	case FullDomain:
		res, err := generalize.SearchFullDomain(dp, hiers, generalize.FullDomainConfig{K: cfg.K, Metrics: met})
		if err != nil {
			return nil, fmt.Errorf("pg: phase 2: %w", err)
		}
		return &phase2Grouping{
			recoding:  res.Recoding,
			boxes:     applyRecoding(res.Recoding, res.Groups.Keys, workers),
			groupRows: res.Groups.Rows,
		}, nil
	case KD:
		res, err := generalize.KDPartitionParallel(dp, cfg.K, par.SpawnDepth(workers))
		if err != nil {
			return nil, fmt.Errorf("pg: phase 2: %w", err)
		}
		return &phase2Grouping{boxes: res.Cells, groupRows: res.Rows}, nil
	default:
		return nil, fmt.Errorf("pg: unknown algorithm %v", cfg.Algorithm)
	}
}

// applyRecoding materializes every group key's box, spreading the per-group
// recoding application over the workers. Boxes are written at their own
// index, so the result is identical to the sequential loop.
func applyRecoding(r *generalize.Recoding, keys [][]int32, workers int) []generalize.Box {
	boxes := make([]generalize.Box, len(keys))
	par.ForEach(workers, len(keys), func(i int) {
		boxes[i] = r.BoxOf(keys[i])
	})
	return boxes
}

// Len returns |D*|.
func (p *Published) Len() int { return p.cols.N }

// FindCrucial performs step A1 of a linking attack: it retrieves the unique
// row whose generalized QI box covers vq. Uniqueness is guaranteed by
// Property G3 plus step S2; ok is false when no row matches (possible only
// for QI regions whose group was empty in the microdata).
func (p *Published) FindCrucial(vq []int32) (Row, bool) {
	for i := 0; i < p.cols.N; i++ {
		if p.cols.covers(i, vq) {
			return p.cols.Row(i), true
		}
	}
	return Row{}, false
}

// Validate checks the structural invariants of D*: every G at least K,
// sensitive values in domain, boxes inside the QI domain, and — Property
// G3 — pairwise-disjoint boxes. The per-row checks run as sweeps over the
// columns, one contiguous stream per field; their shape is FromColumns'
// check. The disjointness check is quadratic and skipped beyond 4000 rows
// (construction guarantees it; tests exercise the small case exhaustively).
func (p *Published) Validate() error {
	if p.K < 1 {
		return fmt.Errorf("pg: K = %d", p.K)
	}
	c := p.cols
	for i, g := range c.G {
		if g < int64(p.K) {
			return fmt.Errorf("pg: row %d has G = %d < K = %d", i, g, p.K)
		}
	}
	for i, v := range c.Value {
		if !p.Schema.Sensitive.Valid(v) {
			return fmt.Errorf("pg: row %d sensitive value %d out of domain", i, v)
		}
	}
	for j := 0; j < c.D; j++ {
		lo, hi := c.Lo[j*c.N:(j+1)*c.N], c.Hi[j*c.N:(j+1)*c.N]
		size := int32(p.Schema.QI[j].Size())
		for i := range lo {
			if lo[i] < 0 || hi[i] >= size || lo[i] > hi[i] {
				return fmt.Errorf("pg: row %d box attribute %d = [%d,%d] invalid", i, j, lo[i], hi[i])
			}
		}
	}
	if c.N <= 4000 {
		for i := 0; i < c.N; i++ {
			for j := i + 1; j < c.N; j++ {
				if boxesOverlap(c, i, j) {
					return fmt.Errorf("pg: rows %d and %d overlap (G3 violation)", i, j)
				}
			}
		}
	}
	return nil
}

// boxesOverlap reports whether the boxes of rows i and j intersect.
func boxesOverlap(c *RowColumns, i, j int) bool {
	for a := 0; a < c.D; a++ {
		o := a * c.N
		if c.Hi[o+i] < c.Lo[o+j] || c.Hi[o+j] < c.Lo[o+i] {
			return false
		}
	}
	return true
}

// Guarantees returns the privacy bounds of Theorems 2 and 3 for this
// publication against λ-skewed adversaries with prior confidence at most
// ρ₁: the minimal certifiable ρ₂ and Δ.
func (p *Published) Guarantees(lambda, rho1 float64) (rho2, delta float64, err error) {
	domain := p.Schema.SensitiveDomain()
	rho2, err = privacy.MinRho2(p.P, lambda, rho1, p.K, domain)
	if err != nil {
		return 0, 0, err
	}
	delta, err = privacy.MinDelta(p.P, lambda, p.K, domain)
	if err != nil {
		return 0, 0, err
	}
	return rho2, delta, nil
}
