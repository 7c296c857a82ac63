package parallel

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pag/internal/ag"
	"pag/internal/cas"
	"pag/internal/cluster"
	"pag/internal/rope"
	"pag/internal/tree"
)

// PoolOptions configures a long-lived compile Pool.
type PoolOptions struct {
	// Workers is the number of worker goroutines; <= 0 uses GOMAXPROCS.
	Workers int
	// MaxInFlight bounds the number of jobs evaluating concurrently;
	// <= 0 uses the worker count. Jobs beyond the bound wait in the
	// admission queue.
	MaxInFlight int
	// QueueDepth bounds how many jobs may wait for admission beyond
	// MaxInFlight: overload degrades to queueing up to this depth, then
	// Compile fails fast with ErrOverloaded instead of accumulating
	// unbounded state. 0 uses DefaultQueueDepth; negative disables
	// queueing entirely (busy pool = immediate ErrOverloaded).
	QueueDepth int
	// CacheBytes bounds the content-addressed fragment cache, the
	// memoization layer that lets the pool skip attribute evaluation
	// for subtrees it has compiled before (identical resubmitted
	// sources above all). 0 uses DefaultCacheBytes; negative disables
	// caching entirely. Per-job, Options.NoCache opts a single compile
	// out.
	CacheBytes int64
	// ClientQuota bounds the jobs one client (Options.Client) may have
	// admitted or waiting at once; further submissions fail fast with
	// an error wrapping ErrQuotaExceeded. 0 disables quotas. The quota
	// is what keeps one greedy client from monopolizing the admission
	// queue of a shared daemon.
	ClientQuota int
	// DiskCache, when non-nil, persists whole-job recordings to the
	// given store and loads them back on whole-tree misses — across
	// pool restarts, and across processes sharing one directory. Cold
	// runs spill write-behind (a slow disk never stalls compiles);
	// loads feed the same replay machinery in-memory hits use, so a
	// disk hit stays byte-identical to cold evaluation. Requires the
	// in-memory cache (ignored when CacheBytes is negative).
	DiskCache *cas.Store
	// Remote, when set, routes admitted jobs to a distributed
	// evaluation backend (a pagd worker fleet) instead of the pool's
	// in-process deques. Admission control, quotas, priorities and all
	// outcome accounting still apply; only the evaluation itself moves.
	Remote RemoteEvaluator
}

// DefaultQueueDepth is the admission-queue bound used when
// PoolOptions.QueueDepth is zero.
const DefaultQueueDepth = 64

// DefaultCacheBytes is the fragment-cache budget used when
// PoolOptions.CacheBytes is zero.
const DefaultCacheBytes = 64 << 20

// Pool failure modes, distinguishable with errors.Is.
var (
	// ErrPoolClosed reports a Compile on a closed Pool.
	ErrPoolClosed = errors.New("parallel: pool is closed")
	// ErrOverloaded reports that MaxInFlight jobs are evaluating and
	// the admission queue is full.
	ErrOverloaded = errors.New("parallel: pool overloaded (admission queue full)")
)

// Pool is a persistent compile service: one long-lived set of worker
// goroutines and work-stealing deques serving many concurrent compile
// jobs. It is the paper's standing network multiprocessor (§3) as a
// runtime object — compilations are farmed out to it, rather than each
// compilation assembling its own machine room.
//
// Isolation between concurrent jobs is structural: each job owns its
// fragment set, its runtime state and its own string librarian (a
// private handle-range namespace, so handles of distinct jobs can
// never collide), while read-only state — the grammar, the OAG
// analysis with its compiled visit plans — is shared across all jobs
// of the same grammar. Jobs are cancellable via context: a cancelled
// job's queued fragments are discarded as workers pop them, its
// pending messages are dropped, and its workers move on to other jobs.
//
// The per-grammar analysis cache is keyed by grammar identity and
// never evicted — the expected shape is a handful of long-lived
// grammars (languages) serving many jobs. Callers that construct a
// fresh Grammar per job should pass their own Job.A instead of
// relying on the cache, or it grows with every new grammar.
//
// A Pool is safe for concurrent use. Close it when done; Run wraps a
// whole Pool lifecycle around a single job for one-shot use.
type Pool struct {
	workers     int
	maxInFlight int
	queueDepth  int

	sched *sched
	wg    sync.WaitGroup

	// Admission control: adm bounds in-flight jobs at maxInFlight with
	// a two-priority-class bounded wait queue and per-client quotas
	// beyond it; closeCh wakes queued waiters when the pool closes.
	adm     *admission
	closed  atomic.Bool
	closeCh chan struct{}

	// m holds the admission-rejection counters and latency histograms
	// (queue wait, per-phase, wall); snapshot everything with Metrics.
	m poolMetrics

	// analyses caches one OAG analysis per grammar. The analysis (and
	// the compiled per-production visit plans inside it) is immutable
	// after construction, so all concurrent jobs of one grammar share a
	// single copy.
	analyses sync.Map // *ag.Grammar -> *ag.Analysis

	// libs recycles per-job string librarians: a job that completes
	// cleanly resets its librarian and returns it, so a busy service
	// stops allocating librarian stores in steady state.
	libs sync.Pool

	// cache is the content-addressed fragment cache (nil when
	// disabled): completed fragment evaluations are recorded under a
	// structural content address and replayed for later jobs with
	// identical content, see cache.go.
	cache *fragCache

	// disk is the persistent tier behind cache (nil without
	// PoolOptions.DiskCache): whole-job recordings spilled write-behind
	// and loaded on whole-tree misses, see disk.go. gramDigests
	// memoizes the structural grammar digest the disk keys substitute
	// for cacheKey's grammar pointer identity.
	disk        *diskCache
	gramDigests sync.Map // *ag.Grammar -> [sha256.Size]byte

	// remote, when non-nil, evaluates admitted jobs on a worker fleet
	// instead of the local deques (PoolOptions.Remote).
	remote RemoteEvaluator

	// Auto-width cost model state: exponentially weighted moving
	// averages of evaluation cost per linearized tree size unit and of
	// per-fragment runtime overhead (split + splice), trained by every
	// completed local job whose fragments all evaluated live (replays
	// would skew it). Stored as float64 bits; zero means untrained
	// (auto-width falls back to the Workers default).
	ewmaEvalNsPerByte     atomic.Uint64
	ewmaOverheadNsPerFrag atomic.Uint64

	// Plan observability: cross-fragment messages across completed
	// local jobs, and the size balance of the latest decomposition
	// (float64 bits).
	messagesTotal atomic.Int64
	lastBalance   atomic.Uint64

	jobsDone      atomic.Int64
	jobsFailed    atomic.Int64
	jobsCancelled atomic.Int64
}

// PoolStats is a point-in-time snapshot of a Pool's activity. The
// Cache* fields report the fragment cache (all zero when disabled):
// hits and misses count whole-job lookups (one per cached-eligible
// Compile), evictions count recordings dropped to hold the byte
// budget.
type PoolStats struct {
	Workers     int   `json:"workers"`
	MaxInFlight int   `json:"max_in_flight"`
	QueueDepth  int   `json:"queue_depth"`
	ClientQuota int   `json:"client_quota"`
	InFlight    int   `json:"in_flight"`
	Waiting     int   `json:"waiting"`
	WaitingHigh int   `json:"waiting_high"`
	WaitingLow  int   `json:"waiting_low"`
	Done        int64 `json:"jobs_done"`
	Failed      int64 `json:"jobs_failed"`
	Cancelled   int64 `json:"jobs_cancelled"`

	CacheHits     int64 `json:"cache_hits"`
	CacheMisses   int64 `json:"cache_misses"`
	CacheEvicted  int64 `json:"cache_evicted"`
	CacheEntries  int   `json:"cache_entries"`
	CacheBytes    int64 `json:"cache_bytes"`
	CacheCapBytes int64 `json:"cache_cap_bytes"`

	// Incremental (per-fragment) replay: fragments completed from a
	// recording inside a whole-tree-miss job, jobs that committed at
	// least one such replay, and replay candidates demoted to live
	// evaluation (inbound mismatch, or speculation starvation at
	// quiescence).
	CachePartialHits int64 `json:"partial_hits"`
	CachePartialJobs int64 `json:"partial_jobs"`
	CacheDemoted     int64 `json:"partial_demotions"`

	// Persistent cache (all zero without PoolOptions.DiskCache):
	// whole-job recordings loaded from disk, spilled to disk, and disk
	// operations that failed (I/O errors, corrupt or undecodable
	// entries — each skipped and rewritten by a later cold run, never
	// misread).
	DiskHits   int64 `json:"disk_hits"`
	DiskWrites int64 `json:"disk_writes"`
	DiskErrors int64 `json:"disk_errors"`

	// Decomposition-plan observability: total cross-fragment attribute
	// messages across completed local jobs, the size balance of the
	// most recent decomposition, and the auto-width cost model's
	// current EWMAs (zero until the first completed job trains them).
	MessagesTotal         int64   `json:"messages_total"`
	LastBalance           float64 `json:"last_balance"`
	AutoEvalNsPerByte     float64 `json:"auto_eval_ns_per_byte"`
	AutoOverheadNsPerFrag float64 `json:"auto_overhead_ns_per_frag"`
}

// NewPool starts the worker goroutines and returns the ready pool.
func NewPool(opts PoolOptions) *Pool {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = opts.Workers
	}
	depth := opts.QueueDepth
	switch {
	case depth == 0:
		depth = DefaultQueueDepth
	case depth < 0:
		depth = 0
	}
	cacheBytes := opts.CacheBytes
	switch {
	case cacheBytes == 0:
		cacheBytes = DefaultCacheBytes
	case cacheBytes < 0:
		cacheBytes = 0
	}
	p := &Pool{
		workers:     opts.Workers,
		maxInFlight: opts.MaxInFlight,
		queueDepth:  depth,
		sched:       newSched(opts.Workers),
		adm:         newAdmission(opts.MaxInFlight, depth, opts.ClientQuota),
		closeCh:     make(chan struct{}),
		remote:      opts.Remote,
	}
	if cacheBytes > 0 {
		p.cache = newFragCache(cacheBytes)
		if opts.DiskCache != nil {
			p.disk = newDiskCache(opts.DiskCache)
		}
	}
	p.libs.New = func() any { return rope.NewLibrarian() }
	for w := 0; w < p.workers; w++ {
		p.wg.Add(1)
		go p.worker(w)
	}
	return p
}

// worker is one pool worker: pop local work, steal, or park, forever —
// fragments of every in-flight job interleave on the same deques.
func (p *Pool) worker(w int) {
	defer p.wg.Done()
	rng := uint64(w)*0x9E3779B97F4A7C15 + 0x1234567
	for {
		f, ok := p.sched.popLocal(w)
		if !ok {
			f, ok = p.sched.steal(w, &rng)
		}
		if !ok {
			if f = p.sched.park(w); f == nil {
				return
			}
		}
		f.r.step(w, f)
	}
}

// Close rejects new jobs, waits for every admitted job to drain, then
// stops the worker goroutines. It is idempotent.
func (p *Pool) Close() {
	if !p.closed.CompareAndSwap(false, true) {
		return
	}
	// Flip the admission controller into rejection mode before waking
	// queued waiters, so none of them can re-enter; then wait until the
	// last admitted job releases its slot.
	p.adm.close()
	close(p.closeCh)
	p.adm.drain()
	p.sched.shutdown()
	p.wg.Wait()
	// Flush pending write-behind spills after the last job drained, so
	// a pool closed right after a cold compile (a daemon handling
	// SIGTERM above all) leaves its recordings on disk for the next
	// process.
	if p.disk != nil {
		p.disk.close()
	}
}

// Stats returns a snapshot of the pool's activity counters.
func (p *Pool) Stats() PoolStats {
	inFlight, waitHigh, waitLow := p.adm.counts()
	st := PoolStats{
		Workers:     p.workers,
		MaxInFlight: p.maxInFlight,
		QueueDepth:  p.queueDepth,
		ClientQuota: p.adm.quota,
		InFlight:    inFlight,
		Waiting:     waitHigh + waitLow,
		WaitingHigh: waitHigh,
		WaitingLow:  waitLow,
		Done:        p.jobsDone.Load(),
		Failed:      p.jobsFailed.Load(),
		Cancelled:   p.jobsCancelled.Load(),
	}
	if c := p.cache; c != nil {
		st.CacheHits = c.hits.Load()
		st.CacheMisses = c.misses.Load()
		st.CacheEvicted = c.evicted.Load()
		st.CacheEntries = c.len()
		st.CacheBytes = c.bytes.Load()
		st.CacheCapBytes = c.max
		st.CachePartialHits = c.partialHits.Load()
		st.CachePartialJobs = c.partialJobs.Load()
		st.CacheDemoted = c.demoted.Load()
	}
	if d := p.disk; d != nil {
		st.DiskHits = d.hits.Load()
		st.DiskWrites = d.writes.Load()
		st.DiskErrors = d.errors.Load()
	}
	st.MessagesTotal = p.messagesTotal.Load()
	st.LastBalance = math.Float64frombits(p.lastBalance.Load())
	st.AutoEvalNsPerByte = math.Float64frombits(p.ewmaEvalNsPerByte.Load())
	st.AutoOverheadNsPerFrag = math.Float64frombits(p.ewmaOverheadNsPerFrag.Load())
	return st
}

// Workers returns the pool's worker count (the default decomposition
// width of jobs that don't request one).
func (p *Pool) Workers() int { return p.workers }

// acquire admits one job, waiting in the bounded queue (in its
// priority class) when MaxInFlight jobs are already evaluating.
// Rejections — overload, per-client quota, closed pool — are counted
// into the metrics by reason.
func (p *Pool) acquire(ctx context.Context, opts Options) error {
	w, err := p.adm.tryAdmit(opts.Client, opts.Priority)
	if err != nil {
		switch {
		case errors.Is(err, ErrQuotaExceeded):
			p.m.rejectedQuota.Add(1)
		case errors.Is(err, ErrOverloaded):
			p.m.rejectedOverload.Add(1)
		case errors.Is(err, ErrPoolClosed):
			p.m.rejectedClosed.Add(1)
		}
		return err
	}
	if w == nil {
		return nil
	}
	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
		err = ctx.Err()
	case <-p.closeCh:
		p.m.rejectedClosed.Add(1)
		err = ErrPoolClosed
	}
	if !p.adm.abandon(w, opts.Priority) {
		// The slot hand-off raced our wake-up and won: we own a slot we
		// will never use — pass it straight on.
		p.adm.release(opts.Client)
	}
	return err
}

// ewmaAlpha is the smoothing factor of the auto-width cost model's
// moving averages: recent jobs dominate (the workload mix drifts) but
// one outlier job cannot swing the model.
const ewmaAlpha = 0.2

// ewmaUpdate folds one sample into a float64-bits EWMA cell with a CAS
// loop. The first positive sample seeds the average directly;
// non-positive or non-finite samples are discarded.
func ewmaUpdate(a *atomic.Uint64, sample float64) {
	if sample <= 0 || math.IsInf(sample, 0) || math.IsNaN(sample) {
		return
	}
	for {
		old := a.Load()
		next := sample
		if cur := math.Float64frombits(old); cur > 0 {
			next = cur + ewmaAlpha*(sample-cur)
		}
		if a.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// autoWidthFor picks the decomposition width for a tree of the given
// linearized size from the trained cost model: with evaluation cost
// e·bytes/w spread across w fragments and per-fragment overhead o·w,
// total time e·bytes/w + o·w is minimized at w* = sqrt(e·bytes/o).
// Returns 0 while the model is untrained (either EWMA empty), telling
// the caller to keep the Workers default.
func (p *Pool) autoWidthFor(bytes, maxWidth int) int {
	e := math.Float64frombits(p.ewmaEvalNsPerByte.Load())
	o := math.Float64frombits(p.ewmaOverheadNsPerFrag.Load())
	if e <= 0 || o <= 0 || bytes <= 0 {
		return 0
	}
	w := int(math.Round(math.Sqrt(e * float64(bytes) / o)))
	if w < 1 {
		w = 1
	}
	if w > maxWidth {
		w = maxWidth
	}
	return w
}

// analysisFor returns the shared OAG analysis of g, computing it on
// first use. Concurrent first users may both run the analysis; the
// result is deterministic and one copy wins, so the cache stays
// consistent.
func (p *Pool) analysisFor(g *ag.Grammar) (*ag.Analysis, error) {
	if a, ok := p.analyses.Load(g); ok {
		return a.(*ag.Analysis), nil
	}
	a, err := ag.Analyze(g)
	if err != nil {
		return nil, err
	}
	actual, _ := p.analyses.LoadOrStore(g, a)
	return actual.(*ag.Analysis), nil
}

// Compile is the one blessed entry point of the runtime: it runs one
// compile job on the pool and blocks until the job completes, fails,
// or ctx is cancelled. Deadlines and cancellation on ctx propagate
// through admission (a job cancelled while queued never runs) and
// evaluation (a job cancelled mid-flight has its remaining fragments
// reclaimed — queued ones dropped as workers pop them, in-flight
// messages discarded — and Compile returns ctx.Err(); the pool keeps
// serving every other job). Many Compile calls may run concurrently;
// each is isolated in its own fragment set and librarian handle
// namespace, and the output is byte-identical to running the job
// alone. The job's tree is evaluated in place and restored before
// Compile returns, so compiles of one tree, on any pool, take turns:
// a Compile whose tree is in use waits (until ctx ends) for it. If the
// job uses Combined mode and carries no analysis, the pool supplies
// the shared one for its grammar.
//
// Admission is governed by Options.Priority (capacity freed by a
// finishing job goes to waiting high-priority jobs first) and, when
// the pool has a ClientQuota, by Options.Client (over-quota
// submissions fail with an error wrapping ErrQuotaExceeded).
func (p *Pool) Compile(ctx context.Context, job cluster.Job, opts Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		p.jobsCancelled.Add(1)
		return nil, err
	}
	// A caller-supplied granularity below the splitter's floor is a
	// request error, rejected before admission instead of silently
	// clamped (Decompose itself still clamps its 0-means-derive input).
	if opts.Granularity != 0 && opts.Granularity < tree.MinGranularity {
		return nil, &GranularityError{Granularity: opts.Granularity}
	}
	enter := time.Now()
	if err := p.acquire(ctx, opts); err != nil {
		// Jobs cancelled while waiting for admission count as
		// cancelled; overload/quota/closed rejections never entered and
		// count as neither done nor failed.
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			p.jobsCancelled.Add(1)
		}
		return nil, err
	}
	p.m.queueWait.observe(time.Since(enter))
	defer p.adm.release(opts.Client)
	var res *Result
	var err error
	if p.remote != nil {
		res, err = p.compileRemote(ctx, job, opts)
	} else {
		res, err = p.compile(ctx, job, opts)
	}
	switch {
	case err == nil:
		p.jobsDone.Add(1)
		p.m.split.observe(res.SplitTime)
		p.m.eval.observe(res.EvalTime)
		p.m.splice.observe(res.SpliceTime)
		p.m.wall.observe(res.WallTime)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		p.jobsCancelled.Add(1)
	default:
		p.jobsFailed.Add(1)
	}
	return res, err
}

// compileRemote is the admitted job body of a pool with a distributed
// backend: option defaulting stays here (so fleet jobs get the same
// width and analysis-cache behavior as local ones), evaluation happens
// on the RemoteEvaluator.
func (p *Pool) compileRemote(ctx context.Context, job cluster.Job, opts Options) (*Result, error) {
	if opts.Mode == 0 {
		opts.Mode = cluster.Combined
	}
	if opts.Mode == cluster.Combined && job.A == nil {
		a, err := p.analysisFor(job.G)
		if err != nil {
			return nil, fmt.Errorf("parallel: combined mode: %w", err)
		}
		job.A = a
	}
	if opts.Workers <= 0 {
		opts.Workers = p.workers
	}
	return p.remote.CompileRemote(ctx, job, opts)
}

// heldTrees lists the job trees being evaluated in place: a local
// compile cuts its job's tree and writes its attribute slots, so it
// must be the tree's only user until it has restored it. The table is
// package-level, not per pool, because one tree may be compiled by
// several pools at once. Each entry's channel closes when its holder
// lets the tree go.
var heldTrees = struct {
	mu sync.Mutex
	m  map[*tree.Node]chan struct{}
}{m: make(map[*tree.Node]chan struct{})}

// holdTree waits until no other compile holds root, then holds it
// until release is called. It gives up with ctx.Err() when ctx ends
// first.
func holdTree(ctx context.Context, root *tree.Node) (release func(), err error) {
	for {
		heldTrees.mu.Lock()
		busy, held := heldTrees.m[root]
		if !held {
			free := make(chan struct{})
			heldTrees.m[root] = free
			heldTrees.mu.Unlock()
			return func() {
				heldTrees.mu.Lock()
				delete(heldTrees.m, root)
				heldTrees.mu.Unlock()
				close(free)
			}, nil
		}
		heldTrees.mu.Unlock()
		select {
		case <-busy:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// compile is the admitted job body: cut the job's tree, seed the
// shared deques, wait for per-job quiescence, assemble the result.
func (p *Pool) compile(ctx context.Context, job cluster.Job, opts Options) (*Result, error) {
	if opts.Mode == 0 {
		opts.Mode = cluster.Combined
	}
	if opts.Mode == cluster.Combined && job.A == nil {
		a, err := p.analysisFor(job.G)
		if err != nil {
			return nil, fmt.Errorf("parallel: combined mode: %w", err)
		}
		job.A = a
	}
	if opts.Workers <= 0 {
		opts.Workers = p.workers
	}
	// Auto-width applies only when the caller did not pin a width; the
	// decision itself needs the tree's size, below.
	wantAuto := opts.AutoWidth && opts.Fragments <= 0
	if opts.Fragments <= 0 {
		opts.Fragments = opts.Workers
	}
	// The job is evaluated in the caller's tree, so it waits its turn
	// behind any other compile of the same tree.
	release, err := holdTree(ctx, job.Root)
	if err != nil {
		return nil, err
	}
	defer release()
	start := time.Now()

	useCache := p.cache != nil && !opts.NoCache

	root := job.Root
	treeBytes := root.Size()
	autoChosen := false
	if wantAuto {
		if w := p.autoWidthFor(treeBytes, opts.Workers); w > 0 {
			opts.Fragments = w
			autoChosen = true
		}
	}
	// Validate the effective decomposition width against the
	// librarian's handle-range layout before doing any work: a wider
	// librarian run would panic mid-evaluation when a fragment claims
	// an out-of-range handle base. Rejecting the request up front (for
	// any librarian run, whether or not the grammar routes a code
	// attribute through it) turns that crash into an error.
	if opts.Librarian && opts.Fragments > rope.MaxHandleRanges {
		return nil, fmt.Errorf("parallel: %d fragments (from %d workers) exceed the librarian's %d handle ranges",
			opts.Fragments, opts.Workers, rope.MaxHandleRanges)
	}
	gran := opts.Granularity
	if gran == 0 {
		gran = tree.GranularityFor(root, opts.Fragments)
	}
	// The parser side, same policy as the cluster: cut the caller's
	// tree at the planned points. Each fragment evaluator writes into
	// the tree's own attribute slots; the cuts are undone once the job
	// is quiescent, on every return path below.
	planStart := time.Now()
	decomp, leaves, undo := tree.SplitInPlace(root, gran, opts.Fragments)
	defer undo()
	planTime := time.Since(planStart)

	// Identify the code attribute of the start symbol. The
	// decomposition is never wider than the validated Fragments
	// request, so librarian handle ranges cannot run out here.
	codeAttr := cluster.CodeAttr(job.G)
	useLib := opts.Librarian && codeAttr >= 0

	r := &rt{
		job:       job,
		opts:      opts,
		leafOf:    make(map[int]*tree.Node),
		lib:       p.libs.Get().(*rope.Librarian),
		useLib:    useLib,
		sched:     p.sched,
		quiet:     make(chan struct{}),
		rootAttrs: make([]ag.Value, len(job.G.Start.Attrs)),
	}
	// Complete the content address now that the decomposition is known,
	// and decide the job's cache schedule. A whole-tree hit replays
	// every fragment from one internally consistent recording. On a
	// whole-tree miss, each fragment is looked up by its own content
	// address (fragKey): fragments with a recording become tentative
	// incremental-replay candidates, validated against their actually
	// received inbound values while edited/unknown fragments evaluate
	// live (see cache.go). Only a fully cold job — no candidate
	// anywhere — records: its fragments all belong to one run, which is
	// what keeps both replay paths internally consistent.
	var key cacheKey
	var fragKeys []fragKey
	var cands []*fragRecord
	var dk cas.Key
	var fragSyms []*ag.Symbol
	if useCache {
		digs := decomp.Digests()
		key = cacheKey{
			g:          job.G,
			fragsHash:  tree.CombineDigests(digs),
			frags:      decomp.NumFragments(),
			width:      opts.Fragments,
			gran:       gran,
			mode:       opts.Mode,
			librarian:  opts.Librarian,
			uidPreset:  opts.UIDPreset,
			noPriority: opts.NoPriority,
		}
		r.cache = p.cache
		if e, ok := p.cache.get(key); ok && len(e.frags) == decomp.NumFragments() {
			r.hit = e
		} else {
			fragKeys = make([]fragKey, len(decomp.Frags))
			for i, f := range decomp.Frags {
				fragKeys[i] = fragKey{
					g:          job.G,
					hash:       digs[i],
					id:         f.ID,
					parent:     f.Parent,
					mode:       opts.Mode,
					librarian:  opts.Librarian,
					uidPreset:  opts.UIDPreset,
					noPriority: opts.NoPriority,
				}
				if rec, ok := p.cache.lookupFrag(fragKeys[i]); ok {
					if cands == nil {
						cands = make([]*fragRecord, len(decomp.Frags))
					}
					cands[i] = rec
				}
			}
		}
		if p.disk != nil {
			fragSyms = make([]*ag.Symbol, len(decomp.Frags))
			for i, f := range decomp.Frags {
				fragSyms[i] = f.Root.Sym
			}
			dk = p.diskKey(&key, job.UIDs)
			if r.hit == nil {
				// Memory missed; try the persistent tier. A loaded entry
				// is published to the in-memory cache first — which also
				// registers its fragments in the incremental index, so a
				// later *edited* tree in this process partial-replays
				// from it exactly as from a local recording — then
				// replayed whole, superseding any incremental candidates.
				if e := p.disk.load(dk, fragSyms, job.G); e != nil && len(e.frags) == decomp.NumFragments() {
					e.fragKeys = fragKeys
					p.cache.put(key, e)
					r.hit = e
					cands = nil
				}
			}
		}
	}
	recording := useCache && r.hit == nil && cands == nil
	for _, f := range decomp.Frags {
		// queued is set here, while the job is still private to this
		// goroutine: the moment the first fragment is pushed, workers
		// may start posting to its siblings, and those reads of queued
		// (under the mailbox lock) must not race the seeding loop.
		fr := &frag{r: r, id: f.ID, parent: f.Parent, root: f.Root, leaves: leaves[f.ID], queued: true}
		switch {
		case r.hit != nil:
			fr.entry = &r.hit.frags[f.ID]
		case cands != nil:
			fr.cand = cands[f.ID] // nil for edited/unknown fragments: they run live
		case recording:
			fr.rec = &fragRecord{}
		}
		r.frags = append(r.frags, fr)
		for _, leaf := range fr.leaves {
			r.leafOf[leaf.RemoteID] = leaf
		}
	}

	// Watch for cancellation while the job runs. The watcher only
	// flips the job's cancelled flag; the workers do the reclamation
	// as they pop the job's fragments.
	stopWatch := context.AfterFunc(ctx, func() { r.cancelled.Store(true) })

	// Seed every fragment round-robin across the worker deques, then
	// wait for this job's quiescence. Workers may start stepping the
	// first fragment before the last is pushed; pending is preset so
	// the job cannot look quiescent early.
	r.pending.Store(int64(len(r.frags)))
	for _, f := range r.frags {
		r.sched.push(f.id%p.workers, f)
	}
	splitDone := time.Now()

	<-r.quiet
	// Speculation can starve itself: a wait-mode candidate's remaining
	// inbound may only be producible by fragments that are themselves
	// waiting (a waiting parent withholds the inherited attributes —
	// the symbol table — that everything below it needs, while its own
	// commit waits on its children's synthesized values). At
	// quiescence, switch the topmost waiting candidate to run-ahead
	// and let the job settle again; each round either completes the
	// job or shrinks the waiting set, so this terminates. Run-ahead
	// fragments evaluate and ship everything a live fragment would, so
	// candidates below them keep matching — and the released fragment
	// itself still commits (skipping its evaluation tail) if its full
	// inbound set matches.
	for r.failure() == nil && !r.cancelled.Load() && int(r.doneCnt.Load()) != len(r.frags) {
		t := r.pickWaiting()
		if t == nil {
			break
		}
		r.runAheadAtQuiescence(t)
		<-r.quiet
	}
	stopWatch()
	evalDone := time.Now()

	if int(r.doneCnt.Load()) != len(r.frags) {
		// An evaluation failure (recovered panic, handle-range
		// exhaustion) takes precedence: fail() also flips cancelled to
		// reclaim the job's remaining fragments, and the failure — not
		// the cancellation it triggered — is the job's outcome.
		if err := r.failure(); err != nil {
			return nil, err
		}
		if r.cancelled.Load() {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return nil, context.Canceled
		}
		var blocked []string
		for _, f := range r.frags {
			if f.ev != nil && !f.ev.Done() {
				for _, b := range f.ev.Blocked() {
					blocked = append(blocked, fmt.Sprintf("fragment %d: %s", f.id, b))
				}
			}
		}
		return nil, fmt.Errorf("parallel: %s on %d worker(s) deadlocked; blocked: %v",
			opts.Mode, opts.Workers, blocked)
	}

	// A run-ahead candidate that finished live without its full inbound
	// set ever matching fell back to ordinary evaluation just like a
	// mismatch demotion — settle it into the demotion counters so
	// partial_hits + partial_demotions accounts for every candidate
	// this job was offered.
	for _, f := range r.frags {
		if f.cand != nil {
			r.demote(f)
		}
	}
	res := &Result{
		RootAttrs: r.rootAttrs,
		Frags:     decomp.NumFragments(),
		Workers:   opts.Workers,
		Decomp:    decomp,
		Messages:  int(r.messages.Load()),
		PlanStats: PlanStats{
			PlanTime:  planTime,
			Width:     opts.Fragments,
			AutoWidth: autoChosen,
			Balance:   decomp.Balance(),
		},
	}
	for _, f := range r.frags {
		res.PerFrag = append(res.PerFrag, f.stats)
		res.Stats.Add(f.stats)
	}
	if codeAttr >= 0 {
		if code, ok := r.rootAttrs[codeAttr].(rope.Code); ok {
			res.Program = rope.FlattenCode(code, r.lib.Lookup)
			if r.useLib {
				// The raw value may reference librarian handles the
				// caller cannot resolve (the librarian is recycled when
				// the job ends); expose the spliced text instead, so
				// RootAttrs is always consumable with a nil lookup.
				res.RootAttrs[codeAttr] = rope.Leaf(res.Program)
			}
		}
	}
	res.StoredStrings, res.StoredBytes = r.lib.Stored()
	res.PartialHits = int(r.partial.Load())
	res.Demoted = int(r.demotedCnt.Load())
	if res.PartialHits > 0 {
		p.cache.partialJobs.Add(1)
	}
	// Publish the recording of a clean fully cold run. By this point
	// the code attribute has been spliced to plain text, so the
	// recorded root attributes are librarian-free and safe to share
	// across jobs; each per-fragment record carries everything else —
	// deposited runs, outbound messages (with handle-bearing code
	// values resolved to text for the incremental path), and the
	// canonical inbound set that gates incremental reuse. Mixed
	// replay/live runs publish nothing: their fragments' outputs do not
	// all come from one run, which both replay paths rely on.
	if recording {
		entry := &cacheEntry{
			frags:     make([]fragRecord, len(r.frags)),
			fragKeys:  fragKeys,
			rootAttrs: append([]ag.Value(nil), r.rootAttrs...),
		}
		for i, f := range r.frags {
			r.finalizeRecord(f)
			if i == 0 {
				f.rec.rootAttrs = entry.rootAttrs
			}
			entry.frags[i] = *f.rec
		}
		p.cache.put(key, entry)
		// Spill the freshly published recording write-behind; the entry
		// is immutable from here on, so the writer goroutine encodes it
		// off the compile path. Handle-bearing code values persist
		// structurally (finalizeRecord already resolved their text),
		// so nothing below needs this job's librarian.
		if p.disk != nil {
			p.disk.spill(dk, entry, fragSyms, job.G)
		}
	}
	// The job completed cleanly, so nothing can reference its handle
	// namespace anymore: recycle the librarian for the next job.
	// (Cancelled and deadlocked jobs drop theirs — their librarian is
	// garbage-collected with the rest of the job state.)
	r.lib.Reset()
	p.libs.Put(r.lib)
	now := time.Now()
	res.SplitTime = splitDone.Sub(start)
	res.EvalTime = evalDone.Sub(splitDone)
	res.SpliceTime = now.Sub(evalDone)
	res.WallTime = now.Sub(start)
	// Train the auto-width cost model, on live evaluation only: a
	// replayed fragment's "eval" is a microsecond replay, and training
	// on it would drag the model toward width 1 for the next cold job.
	// Then file the plan observability counters (pool stats +
	// pag_plan_* metrics).
	if r.hit == nil && res.PartialHits == 0 {
		ewmaUpdate(&p.ewmaEvalNsPerByte, float64(res.EvalTime.Nanoseconds())/float64(treeBytes))
		ewmaUpdate(&p.ewmaOverheadNsPerFrag,
			float64((res.SplitTime+res.SpliceTime).Nanoseconds())/float64(res.Frags))
	}
	p.messagesTotal.Add(int64(res.Messages))
	p.lastBalance.Store(math.Float64bits(res.PlanStats.Balance))
	p.m.observePlan(&res.PlanStats)
	return res, nil
}
