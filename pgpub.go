// Package pgpub is a Go implementation of "On Anti-Corruption Privacy
// Preserving Publication" (Tao, Xiao, Li, Zhang — ICDE 2008): perturbed
// generalization (PG), an anonymization technique combining uniform
// perturbation of the sensitive attribute, k-anonymous global recoding of
// the quasi-identifiers, and stratified sampling, which provides
// background-sensitive privacy guarantees (ρ₁-to-ρ₂ and Δ-growth) that hold
// even when an adversary has corrupted arbitrarily many individuals.
//
// The package is a facade over the internal implementation:
//
//   - microdata modelling (schemas, tables, CSV I/O),
//   - generalization hierarchies and three Phase-2 recoding algorithms
//     (kd-cell partitioning, top-down specialization, full-domain search),
//   - the PG pipeline itself (Publish),
//   - the privacy formalism of the paper's Theorems 1–3 (guarantee bounds
//     and retention-probability solvers),
//   - the corruption-aided linking-attack model (NewExternal, LinkAttack),
//   - decision-tree mining of published data (TrainPG, TrainTable),
//   - aggregate COUNT/SUM/AVG estimation over a release, scan-based
//     (EstimateCount) or served from a precomputed index (NewQueryIndex),
//   - a synthetic substitute for the paper's SAL census data
//     (GenerateSAL),
//   - an observability layer (NewMetricsRegistry; thread it through
//     Config.Metrics or NewQueryIndexObserved) with deterministic
//     exporters — see docs/OBSERVABILITY.md, and
//   - a serving layer: binary publication snapshots (SaveSnapshot /
//     LoadSnapshot) and the hardened HTTP query API behind cmd/pgserve
//     (NewServeServer) — see docs/SERVING.md.
//
// A minimal publication round trip:
//
//	d, _ := pgpub.GenerateSAL(100000, 42)
//	p, _ := pgpub.MaxRetentionRho12(0.1, 0.2, 0.45, 6, 50) // Table III level
//	pub, _ := pgpub.Publish(d, pgpub.SALHierarchies(d.Schema), pgpub.Config{K: 6, P: p})
//	pub.WriteCSV(os.Stdout)
//
// # Parallelism and determinism
//
// Publish runs all three phases on a worker pool sized by
// runtime.GOMAXPROCS; parallelism is not a Config setting. The output is
// byte-identical at every GOMAXPROCS: work is cut into shards of fixed
// size, and each shard's random stream is derived from the publication's
// root seed and the shard index with a splitmix64 mix
// (internal/par.SplitSeed), so scheduling never influences which stream a
// shard consumes. The root seed is Config.Seed;
// a caller publishing repeatedly from one *rand.Rand passes
// Seed: rng.Int63(), one draw per publication.
package pgpub

import (
	"pgpub/internal/attack"
	"pgpub/internal/dataset"
	"pgpub/internal/generalize"
	"pgpub/internal/hierarchy"
	"pgpub/internal/mining"
	"pgpub/internal/minv"
	"pgpub/internal/obs"
	"pgpub/internal/pg"
	"pgpub/internal/privacy"
	"pgpub/internal/query"
	"pgpub/internal/repub"
	"pgpub/internal/sal"
	"pgpub/internal/serve"
	"pgpub/internal/snapshot"
)

// Data-model types.
type (
	// Attribute is one microdata column with an integer-coded domain.
	Attribute = dataset.Attribute
	// Schema is a microdata layout: QI attributes plus one sensitive.
	Schema = dataset.Schema
	// Table is a microdata relation D.
	Table = dataset.Table
	// Hierarchy is a generalization taxonomy over an attribute domain.
	Hierarchy = hierarchy.Hierarchy
)

// Publication types.
type (
	// Config parameterizes Publish (K, retention probability P, Seed, ...).
	Config = pg.Config
	// Published is the anonymized table D*, its rows stored as RowColumns.
	Published = pg.Published
	// Row is a copy of one published tuple (generalized box, observed
	// value, G), as FindCrucial returns it.
	Row = pg.Row
	// RowColumns holds the published rows, the one form Published stores
	// them in: one contiguous array per field, box bounds dim-major.
	RowColumns = pg.RowColumns
	// Algorithm selects the Phase-2 recoding algorithm.
	Algorithm = pg.Algorithm
)

// Phase-2 algorithms.
const (
	// KD is Mondrian-style kd-cell partitioning (the default).
	KD = pg.KD
	// TDS is top-down specialization, the algorithm the paper adapts.
	TDS = pg.TDS
	// FullDomain is Incognito-style full-domain recoding.
	FullDomain = pg.FullDomain
)

// Privacy-formalism types.
type (
	// PDF is an adversary's background knowledge over the sensitive domain.
	PDF = privacy.PDF
	// Predicate is an attack target Q as a membership mask over U^s.
	Predicate = privacy.Predicate
)

// Attack-model types.
type (
	// External is the external database ℰ of the linking-attack model.
	External = attack.External
	// Adversary couples background knowledge with a corruption set 𝒞.
	Adversary = attack.Adversary
	// AttackResult carries an attack's posterior and its derivation.
	AttackResult = attack.Result
	// Conventional is a classic generalized publication (all tuples, exact
	// sensitive values) — the baseline Lemmas 1 and 2 break.
	Conventional = attack.Conventional
	// Recoding is a cut-based global recoding of the QI attributes.
	Recoding = generalize.Recoding
)

// Conventional-generalization baseline (Section III).
var (
	// PublishConventional groups a table under a recoding with s = 1.
	PublishConventional = attack.PublishConventional
	// TopRecoding fully suppresses every QI attribute.
	TopRecoding = generalize.TopRecoding
)

// Mining types.
type (
	// MiningConfig tunes the Gini decision-tree growers: depth cap, leaf
	// weight floor, gain floor and the reconstruction hook.
	MiningConfig = mining.Config
	// PGClassifier is a tree mined from a PG publication.
	PGClassifier = mining.PGClassifier
	// TableClassifier is a tree mined from raw microdata.
	TableClassifier = mining.TableClassifier
)

// Schema construction.
var (
	// NewAttribute creates a discrete attribute from labels.
	NewAttribute = dataset.NewAttribute
	// NewIntAttribute creates an ordered attribute over an integer range.
	NewIntAttribute = dataset.NewIntAttribute
	// NewSchema assembles QI attributes and a sensitive attribute.
	NewSchema = dataset.NewSchema
	// NewTable creates an empty microdata table.
	NewTable = dataset.NewTable
	// ReadCSV loads a table written by Table.WriteCSV.
	ReadCSV = dataset.ReadCSV
)

// Hierarchy construction.
var (
	// NewIntervalHierarchy builds nested fixed-width interval levels.
	NewIntervalHierarchy = hierarchy.NewInterval
	// NewBalancedHierarchy groups codes by a constant fanout per level.
	NewBalancedHierarchy = hierarchy.NewBalanced
	// NewFlatHierarchy offers only full suppression.
	NewFlatHierarchy = hierarchy.NewFlat
)

// Publish runs the three PG phases on the microdata and returns D*.
var Publish = pg.Publish

// Release I/O.
var (
	// ReadPublishedCSV loads a release written by Published.WriteCSV; the
	// retention probability comes from the release metadata.
	ReadPublishedCSV = pg.ReadCSV
	// ReadReleaseMetadata parses the JSON document written by
	// Metadata.Write.
	ReadReleaseMetadata = pg.ReadMetadata
	// InferSchema derives a schema (and table) from an arbitrary CSV.
	InferSchema = dataset.InferSchema
)

// ReleaseMetadata is the publication metadata announced with a release.
type ReleaseMetadata = pg.Metadata

// Guarantee mathematics (Section VI).
var (
	// HTop is the ownership-probability bound h⊤ of Inequality 20.
	HTop = privacy.HTop
	// MinRho2 is the smallest certifiable ρ₂ (Theorem 2) — Table III.
	MinRho2 = privacy.MinRho2
	// MinDelta is the smallest certifiable Δ (Theorem 3) — Table III.
	MinDelta = privacy.MinDelta
	// MaxRetentionRho12 solves for the largest p meeting a ρ₁-to-ρ₂ level.
	MaxRetentionRho12 = privacy.MaxRetentionRho12
	// MaxRetentionDelta solves for the largest p meeting a Δ-growth level.
	MaxRetentionDelta = privacy.MaxRetentionDelta
	// UniformPDF is the zero-knowledge background pdf.
	UniformPDF = privacy.Uniform
	// ExcludingPDF rules out known-impossible values, the (c,l)-diversity
	// background type.
	ExcludingPDF = privacy.Excluding
	// PredicateOf builds an attack target from a value set.
	PredicateOf = privacy.PredicateOf
	// Amplification is the operator's γ (equals Theorem 2's threshold).
	Amplification = privacy.Amplification
	// LocalDPEpsilon is ln γ: the perturbation's ε-local-DP level.
	LocalDPEpsilon = privacy.LocalDPEpsilon
	// RetentionForEpsilon inverts LocalDPEpsilon.
	RetentionForEpsilon = privacy.RetentionForEpsilon
)

// Attack model (Section V).
var (
	// NewExternal builds ℰ from the microdata and a voter list.
	NewExternal = attack.NewExternal
	// LinkAttack performs the corruption-aided linking attack A1–A3.
	LinkAttack = attack.LinkAttack
)

// Mining (Section VII).
var (
	// TrainPG grows a reconstruction-weighted honest tree on a publication.
	TrainPG = mining.TrainPG
	// TrainNBPG fits a reconstruction-corrected naive-Bayes model on a
	// publication (the second mining modality).
	TrainNBPG = mining.TrainNBPG
	// TrainTable grows a tree on raw microdata (the paper's yardsticks).
	TrainTable = mining.TrainTable
	// Accuracy evaluates a classifier against microdata ground truth.
	Accuracy = mining.Accuracy
)

// NBConfig carries the naive-Bayes miner's reconstruction hook; its Laplace
// smoothing (1) and ordered-feature binning (10 bins) are fixed.
type NBConfig = mining.NBConfig

// Hospital returns the paper's running example: the microdata of Table Ia.
func Hospital() *Table { return dataset.Hospital() }

// HospitalNames lists the voter registration list of Table Ib; index = ID.
func HospitalNames() []string { return dataset.HospitalNames }

// HospitalVoterQI returns the QI vectors of the Table Ib voter list.
func HospitalVoterQI() [][]int32 { return dataset.HospitalVoterQI() }

// HospitalHierarchies builds generalization hierarchies at the granularity
// of the paper's Table Ic for the hospital schema.
func HospitalHierarchies(s *Schema) []*Hierarchy { return hierarchy.Hospital(s) }

// SAL census substitute (Section VII-A; see DESIGN.md §3).
var (
	// GenerateSAL synthesizes an n-row SAL table.
	GenerateSAL = sal.Generate
	// SALHierarchies builds the Phase-2 hierarchies for the SAL schema.
	SALHierarchies = sal.Hierarchies
	// SALCategorizer maps Income codes to the paper's m categories.
	SALCategorizer = sal.Categorizer
)

// Aggregate-query types (COUNT estimation over D*).
type (
	// CountQuery is a conjunctive counting predicate over QI ranges and an
	// optional sensitive-value set.
	CountQuery = query.CountQuery
	// QueryRange is one attribute's inclusive code interval.
	QueryRange = query.Range
	// WorkloadConfig drives the random-query generator.
	WorkloadConfig = query.WorkloadConfig
)

// Aggregate-query estimation.
var (
	// TrueCount evaluates a query against microdata ground truth.
	TrueCount = query.TrueCount
	// EstimateCount estimates a query from D* alone (stratified weights,
	// box-uniformity, aggregate perturbation inversion).
	EstimateCount = query.Estimate
	// QueryWorkload generates random counting queries for evaluation.
	QueryWorkload = query.Workload
)

// Indexed query serving: a precomputed structure over one publication that
// answers the scan estimators' queries orders of magnitude faster.
type (
	// QueryIndex answers Count/Naive/AvgParts and batched workloads from
	// per-box aggregates under an interval grid and a kd-tree.
	QueryIndex = query.Index
)

var (
	// NewQueryIndex builds the serving index from a publication.
	NewQueryIndex = query.NewIndex
	// NewQueryIndexObserved builds the serving index with build/answer
	// instrumentation recorded in a metrics registry.
	NewQueryIndexObserved = query.NewIndexObserved
)

// Observability (docs/OBSERVABILITY.md). A registry passed via
// Config.Metrics instruments the publication pipeline; a nil registry
// disables all instrumentation at the cost of one branch per site.
type (
	// MetricsRegistry collects counters, gauges and latency histograms and
	// renders them with deterministic text/JSON exporters.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time copy of a registry's instruments.
	MetricsSnapshot = obs.Snapshot
)

// NewMetricsRegistry creates an empty metrics registry.
var NewMetricsRegistry = obs.NewRegistry

// Re-publication types (Section IX future work; see internal/repub).
type (
	// Observation is one release's evidence about a victim.
	Observation = repub.Observation
)

// Re-publication analysis.
var (
	// MultiReleaseAttack composes per-release linking attacks, returning
	// the posterior after each prefix of the releases.
	MultiReleaseAttack = repub.MultiReleaseAttack
	// ComposedGrowthBound bounds the growth achievable from T releases.
	ComposedGrowthBound = repub.ComposedGrowthBound
	// MaxRetentionForSeries plans a per-release p for a T-release budget.
	MaxRetentionForSeries = repub.MaxRetentionForSeries
)

// m-invariance (deterministic re-publication; see internal/minv).
type (
	// MInvState is the cross-release signature ledger.
	MInvState = minv.State
	// MInvRelease is one m-invariant publication round.
	MInvRelease = minv.Release
	// MInvSignature is a group's sorted sensitive-value set.
	MInvSignature = minv.Signature
)

// m-invariance operations.
var (
	// NewMInvState starts a fresh ledger for parameter m.
	NewMInvState = minv.NewState
	// VerifyMInvariance checks a release sequence against its tables.
	VerifyMInvariance = minv.Verify
	// IntersectionAttack intersects a victim's signatures across releases.
	IntersectionAttack = minv.IntersectionAttack
)

// Publication snapshots: a versioned, checksummed binary codec carrying a
// complete publication (schema, recoding, rows, guarantee metadata) in one
// file, so serving processes skip publish recomputation. Format spec in
// docs/SERVING.md.
var (
	// SaveSnapshot writes a publication snapshot atomically to a file.
	SaveSnapshot = snapshot.Save
	// LoadSnapshot reads a snapshot file into memory and opens it fully
	// verified; the loaded publication reproduces the original's WriteCSV
	// bytes and Metadata exactly, and its stored query index serves as is.
	LoadSnapshot = snapshot.Load
	// WriteSnapshot serializes a publication snapshot, with an optional
	// release-chain block, to a writer.
	WriteSnapshot = snapshot.Write
	// ReadSnapshot is LoadSnapshot over a reader holding exactly one
	// snapshot.
	ReadSnapshot = snapshot.Read
	// OpenSnapshot maps a version-2/3 snapshot for serving in place: the
	// column blocks and the prebuilt query index adopt the file's pages, so
	// a cold start costs page faults instead of a read. Only the metadata
	// is checksummed; MappedSnapshot.Verify runs LoadSnapshot's full check.
	OpenSnapshot = snapshot.OpenMapped
)

// SnapshotRelease is a decoded snapshot: publication, guarantee metadata,
// release-chain block and the header CRC that identifies the release.
type SnapshotRelease = snapshot.Release

// MappedSnapshot is an opened snapshot, from LoadSnapshot, ReadSnapshot or
// OpenSnapshot: a SnapshotRelease and the stored serving index, both
// aliasing the file image.
type MappedSnapshot = snapshot.Mapped

// Network serving layer (cmd/pgserve; API reference in docs/SERVING.md).
type (
	// ServeConfig parameterizes the HTTP serving layer: backend index,
	// admission limit, request timeout, result-cache size, metrics.
	ServeConfig = serve.Config
	// ServeServer answers the /v1 query API over one publication.
	ServeServer = serve.Server
)

// NewServeServer builds the HTTP serving layer over a query index.
var NewServeServer = serve.New

// SUM/AVG estimation over D*.
var (
	// EstimateSum estimates SUM(value(sensitive)) over a QI region.
	EstimateSum = query.EstimateSum
	// EstimateAvg estimates AVG(value(sensitive)) over a QI region.
	EstimateAvg = query.EstimateAvg
	// TrueSum evaluates the SUM against microdata ground truth.
	TrueSum = query.TrueSum
	// IncomeMidpoint maps Income buckets to dollar midpoints.
	IncomeMidpoint = query.IncomeMidpoint
)
