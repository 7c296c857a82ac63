// Package pag is a from-scratch Go reproduction of "Parallel Attribute
// Grammar Evaluation" (Hans-Juergen Boehm and Willy Zwaenepoel, ICDCS
// 1987): a compiler generator that turns one attribute-grammar
// specification into a parallel translator — a sequential parser that
// splits the parse tree, attribute evaluators on separate machines
// exchanging attribute values, and a string librarian assembling the
// generated code from descriptors.
//
// The package is a facade over the implementation packages:
//
//   - Grammar construction and OAG analysis (internal/ag): NewGrammar,
//     Analyze, the attribute and rule declaration helpers.
//   - Parse trees, splitting and linearization (internal/tree).
//   - The three evaluators of the paper (internal/eval): NewDynamic,
//     NewStatic, NewCombined.
//   - The real shared-memory parallel runtime (internal/parallel):
//     NewPool and Pool.Compile (context-first, with metrics, quotas
//     and priorities), or one-shot CompileParallel. It runs the
//     paper's configuration only — the combined evaluator with
//     unique-identifier presets — and keeps no string librarian,
//     since in shared memory a rope pointer already is the O(1)
//     descriptor the librarian exists to provide. The ablations
//     (dynamic mode, no librarian, the unique-identifier chain) live
//     in the simulator, which reproduces the paper's tables with them.
//   - The parallel runtime on a simulated 1987 network multiprocessor
//     (internal/cluster, internal/netsim): CompileSim.
//   - Supporting data structures from §4.3 of the paper: rope strings
//     (internal/rope), applicative symbol tables (internal/symtab).
//
// A complete small language built on this API lives in
// internal/exprlang (the paper's appendix grammar); the full Pascal
// subset compiler of the paper's experiments lives in internal/pascal.
// See examples/ for runnable demonstrations and cmd/benchfig for the
// reproduction of every figure and table.
package pag

import (
	"pag/internal/ag"
	"pag/internal/cas"
	"pag/internal/cluster"
	"pag/internal/eval"
	"pag/internal/netsim"
	"pag/internal/parallel"
	"pag/internal/rope"
	"pag/internal/symtab"
	"pag/internal/trace"
	"pag/internal/tree"
)

// Grammar model (internal/ag).
type (
	// Grammar is a validated attribute grammar.
	Grammar = ag.Grammar
	// GrammarBuilder assembles a Grammar declaratively.
	GrammarBuilder = ag.Builder
	// Symbol is a terminal or nonterminal with attributes.
	Symbol = ag.Symbol
	// Production is a context-free production with semantic rules.
	Production = ag.Production
	// Analysis is the OAG prepass result: visit phases and plans.
	Analysis = ag.Analysis
	// AttrSpec declares one attribute of a symbol.
	AttrSpec = ag.AttrSpec
	// RuleSpec declares one semantic rule.
	RuleSpec = ag.RuleSpec
	// Value is an attribute value.
	Value = ag.Value
	// Codec converts attribute values for network transmission.
	Codec = ag.Codec
)

// NewGrammar starts a grammar definition.
func NewGrammar(name string) *GrammarBuilder { return ag.NewBuilder(name) }

// Analyze runs the ordered-attribute-grammar analysis (Kastens), the
// prepass that enables static and combined evaluation.
func Analyze(g *Grammar) (*Analysis, error) { return ag.Analyze(g) }

// Attribute and rule declaration helpers.
var (
	Syn   = ag.Syn
	Inh   = ag.Inh
	Def   = ag.Def
	Copy  = ag.Copy
	Const = ag.Const
)

// Parse trees (internal/tree).
type (
	// Node is a parse-tree node.
	Node = tree.Node
	// Decomposition is a tree split into separately evaluated fragments.
	Decomposition = tree.Decomposition
	// CutPlan is the grammar-level decomposition plan: per-symbol cut
	// costs from occurrence equivalence classes and the static wave
	// schedule. aglint reports its bottlenecks; decomposition itself is
	// purely size-driven (Decompose).
	CutPlan = ag.CutPlan
)

// MinGranularity is the smallest useful split granularity in bytes;
// Pool.Compile rejects smaller explicit values with a GranularityError.
const MinGranularity = tree.MinGranularity

// NewNode creates an interior node; NewTerminal a scanner leaf.
var (
	NewNode     = tree.New
	NewTerminal = tree.NewTerminal
	// Decompose splits a tree by size (paper §2.5 granularity).
	Decompose = tree.Decompose
	// NewCutPlan computes a grammar's cut plan (analysis may be nil for
	// a single-wave plan).
	NewCutPlan = ag.NewCutPlan
)

// Evaluators (internal/eval).
type (
	// DynamicEvaluator evaluates via a runtime dependency graph.
	DynamicEvaluator = eval.Dynamic
	// StaticEvaluator evaluates via precomputed visit sequences.
	StaticEvaluator = eval.Static
	// CombinedEvaluator is the paper's contribution: dynamic on the
	// spine to remote subtrees, static everywhere else.
	CombinedEvaluator = eval.Combined
	// EvalHooks connects an evaluator to its environment.
	EvalHooks = eval.Hooks
	// EvalStats counts static/dynamic evaluations.
	EvalStats = eval.Stats
)

// Evaluator constructors.
var (
	NewDynamic  = eval.NewDynamic
	NewStatic   = eval.NewStatic
	NewCombined = eval.NewCombined
)

// Simulated 1987 cluster (internal/cluster, internal/netsim).
type (
	// Job describes one parallel compilation (shared by the simulated
	// and the real runtime).
	Job = cluster.Job
	// SimOptions configures a simulated compilation: machines, mode and
	// optimizations.
	SimOptions = cluster.Options
	// SimResult reports a simulated compilation: virtual-time timings,
	// statistics and the produced program.
	SimResult = cluster.Result
	// Mode selects the evaluation strategy.
	Mode = cluster.Mode
	// Hardware describes the simulated machines and network.
	Hardware = netsim.Config
	// Trace is a machine activity trace (renders as a Gantt chart).
	Trace = trace.Trace
)

// Evaluation modes.
const (
	Combined = cluster.Combined
	Dynamic  = cluster.Dynamic
)

// CompileSim runs one parallel compilation on the simulated network
// multiprocessor — the paper's 1987 testbed in virtual time — and
// returns its result. (It was named Compile before the real runtime
// became the primary path.)
func CompileSim(job Job, opts SimOptions) (*SimResult, error) { return cluster.Run(job, opts) }

// DefaultHardware returns the paper's testbed: SUN-2-class machines on
// a 10 Mbit/s shared Ethernet under a V-System-like message layer.
func DefaultHardware() Hardware { return netsim.DefaultHardware() }

// Real multicore runtime (internal/parallel). This is the primary
// path: NewPool + Pool.Compile for services, CompileParallel for
// one-shot runs, CompileSim for the paper's virtual-time testbed.
type (
	// Options configures the shared-memory parallel runtime, including
	// the job's Client identity and admission Priority. Its Mode,
	// Librarian and UIDPreset fields are deprecated and ignored (a Mode
	// other than Combined is refused).
	Options = parallel.Options
	// Result reports a real parallel compilation: wall time,
	// statistics and the produced program.
	Result = parallel.Result
	// Metrics is a Pool's full observability snapshot: activity and
	// cache counters, admission rejections and latency histograms.
	// Encode it for scraping with its WritePrometheus method.
	Metrics = parallel.Metrics
	// Histogram is a point-in-time latency histogram snapshot inside
	// Metrics, with a Quantile estimator.
	Histogram = parallel.Histogram
	// Priority is a job's admission class: PriorityHigh (default,
	// interactive) or PriorityLow (batch, yields admission under load).
	Priority = parallel.Priority
	// QuotaError is the typed form of an over-quota rejection (wraps
	// ErrQuotaExceeded; carries the client and limit).
	QuotaError = parallel.QuotaError
	// GranularityError reports an explicit Options.Granularity below
	// MinGranularity.
	GranularityError = parallel.GranularityError
	// PlanStats reports the decomposition planning of one compilation:
	// plan time, width and balance.
	PlanStats = parallel.PlanStats
	// Pool is a persistent compile service: one long-lived worker pool
	// serving many concurrent compile jobs, each isolated in its own
	// fragment set, with a content-addressed whole-job cache returning the recorded result
	// for recompilations of identical sources without running any
	// fragment. Every clean cold compile records, so an edited source
	// compiles cold once and hits from its second compile on.
	Pool = parallel.Pool
	// PoolOptions configures a Pool: workers, max in-flight jobs, the
	// admission-queue depth, the per-client quota (ClientQuota), the
	// whole-job cache byte budget (CacheBytes; 0 = DefaultCacheBytes,
	// negative disables caching) and the optional persistent cache
	// store (DiskCache, from OpenDiskCache).
	PoolOptions = parallel.PoolOptions
	// DiskCache is the crash-safe on-disk store behind
	// PoolOptions.DiskCache: whole-job results (root attributes and
	// counters) spilled write-behind and served byte-identically to an
	// identical tree across pool (and process) restarts. A disk hit
	// serves exactly the trees that were recorded. One directory may be
	// shared by many pools/processes.
	DiskCache = cas.Store
	// PoolStats is a snapshot of a Pool's activity, including the
	// whole-job cache's hit/miss/eviction counters.
	PoolStats = parallel.PoolStats
	// RemoteEvaluator is the distributed backend a Pool routes admitted
	// jobs to when PoolOptions.Remote is set; internal/fleet provides
	// the production implementation (a health-checked worker fleet with
	// retry/requeue and graceful degradation to local evaluation).
	RemoteEvaluator = parallel.RemoteEvaluator
	// FleetStats is the distributed backend's health and fault-path
	// snapshot inside Metrics: worker states, remote/local fragment
	// counts, retries, requeues, corrupt responses, degraded jobs.
	FleetStats = parallel.FleetStats
)

// DefaultCacheBytes is the whole-job cache budget a Pool uses when
// PoolOptions.CacheBytes is zero.
const DefaultCacheBytes = parallel.DefaultCacheBytes

// OpenDiskCache opens (creating, or wiping on a layout-version
// mismatch) dir as a persistent whole-job cache store for
// PoolOptions.DiskCache. maxBytes bounds the directory's size with
// oldest-first GC (0 picks a default, negative disables the bound).
// Stale or damaged entries are skipped and rewritten, never misread.
func OpenDiskCache(dir string, maxBytes int64) (*DiskCache, error) {
	return parallel.OpenDiskCache(dir, maxBytes)
}

// Admission classes (Options.Priority).
const (
	PriorityHigh = parallel.PriorityHigh
	PriorityLow  = parallel.PriorityLow
)

// Pool failure modes (errors.Is-able).
var (
	// ErrPoolClosed reports a Compile on a closed Pool.
	ErrPoolClosed = parallel.ErrPoolClosed
	// ErrOverloaded reports a full admission queue.
	ErrOverloaded = parallel.ErrOverloaded
	// ErrQuotaExceeded reports a client at its per-client quota
	// (PoolOptions.ClientQuota); errors.As with *QuotaError for detail.
	ErrQuotaExceeded = parallel.ErrQuotaExceeded
)

// ParsePriority maps "high"/"low" (and "" = high) to a Priority.
func ParsePriority(s string) (Priority, error) { return parallel.ParsePriority(s) }

// NewPool starts a persistent compile pool. The pool owns the worker
// goroutines and work-stealing scheduler; many Pool.Compile calls may
// run concurrently on it, subject to the configured admission bounds
// (max in-flight, queue depth, per-client quotas, priority classes),
// and each job's output is byte-identical to running it alone.
// Pool.Compile(ctx, job, opts) is the one blessed entry point of the
// runtime: the context carries cancellation and deadlines into the
// evaluation itself. Close the pool when done; Pool.Metrics exposes
// the observability snapshot.
func NewPool(opts PoolOptions) *Pool { return parallel.NewPool(opts) }

// CompileParallel runs one compilation on the real shared-memory
// parallel runtime: the tree is decomposed exactly as in CompileSim,
// but fragments are evaluated by a pool of worker goroutines on real
// CPU cores, attribute values travel between fragments over
// per-fragment mailboxes, and code ropes are shared by pointer and
// flattened once at the end. Given opts.Workers == Machines and the
// simulator's unique-identifier presets, the produced program is
// byte-identical to CompileSim's. It is a thin
// wrapper over a one-shot Pool; services compiling repeatedly should
// hold a NewPool and call Pool.Compile.
func CompileParallel(job Job, opts Options) (*Result, error) {
	return parallel.Run(job, opts)
}

// Support libraries (§4.3 of the paper).
type (
	// Rope is a binary-tree string with O(1) concatenation.
	Rope = rope.Rope
	// Code is the librarian-aware code-attribute string type.
	Code = rope.Code
	// SymTable is an applicative symbol table.
	SymTable = symtab.Table
)

// Rope and symbol-table constructors.
var (
	Leaf      = rope.Leaf
	Concat    = rope.Concat
	CatCode   = rope.CatCode
	NewSymTab = symtab.New
	Text      = rope.Text
)
