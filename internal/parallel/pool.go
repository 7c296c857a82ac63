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
	"pag/internal/eval"
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
	// CacheBytes bounds the content-addressed whole-job cache, the
	// memoization layer that lets the pool skip attribute evaluation
	// for trees it has compiled before (identical resubmitted sources,
	// an edit compiled a second time). 0 uses DefaultCacheBytes;
	// negative disables caching entirely. Per-job, Options.NoCache
	// opts a single compile out.
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
	// runs spill write-behind (a slow disk never stalls compiles); a
	// loaded recording serves the job exactly as an in-memory hit
	// does, so a disk hit stays byte-identical to cold evaluation.
	// Requires the in-memory cache (ignored when CacheBytes is
	// negative).
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

// DefaultCacheBytes is the whole-job cache budget used when
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
// fragment set and its runtime state, while read-only state — the
// grammar, the OAG analysis with its compiled visit plans — is shared
// across all jobs of the same grammar. Jobs are cancellable via context: a cancelled
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

	// cache is the content-addressed whole-job cache (nil when
	// disabled): every clean cold job's result is recorded under a
	// structural content address and returned to later jobs with
	// identical content, see cache.go.
	cache *jobCache

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

	// Plan observability: cross-fragment messages across completed
	// jobs, local and fleet, and the size balance of the latest
	// decomposition (float64 bits).
	messagesTotal atomic.Int64
	lastBalance   atomic.Uint64

	jobsDone      atomic.Int64
	jobsFailed    atomic.Int64
	jobsCancelled atomic.Int64
}

// PoolStats is a point-in-time snapshot of a Pool's activity. The
// Cache* fields report the whole-job cache (all zero when disabled):
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

	// CacheDemoted is always zero: the pool replays whole jobs only. It
	// stays for the benchmark harness, which still reads it, until it
	// drops it.
	CacheDemoted int64 `json:"partial_demotions"`

	// Persistent cache (all zero without PoolOptions.DiskCache):
	// whole-job recordings loaded from disk, spilled to disk, and disk
	// operations that failed (I/O errors, corrupt or undecodable
	// entries — each skipped and rewritten by a later cold run, never
	// misread).
	DiskHits   int64 `json:"disk_hits"`
	DiskWrites int64 `json:"disk_writes"`
	DiskErrors int64 `json:"disk_errors"`

	// Decomposition-plan observability: total cross-fragment attribute
	// messages across completed jobs (local and fleet alike) and the
	// size balance of the most recent decomposition.
	MessagesTotal int64   `json:"messages_total"`
	LastBalance   float64 `json:"last_balance"`
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
		p.cache = newJobCache(cacheBytes)
		if opts.DiskCache != nil {
			p.disk = newDiskCache(opts.DiskCache)
		}
	}
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
	}
	if d := p.disk; d != nil {
		st.DiskHits = d.hits.Load()
		st.DiskWrites = d.writes.Load()
		st.DiskErrors = d.errors.Load()
	}
	st.MessagesTotal = p.messagesTotal.Load()
	st.LastBalance = math.Float64frombits(p.lastBalance.Load())
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
// each is isolated in its own fragment set, and the output is
// byte-identical to running the job alone. The job's tree is evaluated
// in place and restored before Compile returns, so compiles of one
// tree, on any pool, take turns: a Compile whose tree is in use waits
// (until ctx ends) for it; a pool with a RemoteEvaluator only reads the
// tree. Every job runs the paper's configuration — combined evaluation
// with unique-identifier presets — and Compile rejects an Options.Mode
// other than Combined; if the job carries no analysis, the pool
// supplies the shared one for its grammar.
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
	// Dynamic mode is a simulator ablation; refuse it rather than
	// silently run the combined evaluator in its place.
	if opts.Mode != 0 && opts.Mode != cluster.Combined {
		return nil, fmt.Errorf("parallel: mode %s: the pool runs only the combined evaluator (the simulator keeps the others)", opts.Mode)
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
	res, err := p.compile(ctx, job, opts)
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

// compile is the admitted job body. The parser side is the same for
// local and remote jobs: default the options, supply the analysis,
// plan the cuts. A remote job then goes to remoteJob. A local one
// looks the job up in the cache, seeds the
// shared deques, waits for per-job quiescence and assembles the
// result; a whole-tree cache hit returns right after the lookup,
// running no fragment.
func (p *Pool) compile(ctx context.Context, job cluster.Job, opts Options) (*Result, error) {
	if job.A == nil {
		a, err := p.analysisFor(job.G)
		if err != nil {
			return nil, fmt.Errorf("parallel: combined mode: %w", err)
		}
		job.A = a
	}
	if opts.Workers <= 0 {
		opts.Workers = p.workers
	}
	if opts.Fragments <= 0 {
		opts.Fragments = opts.Workers
	}
	// A local job is evaluated in the caller's tree, so it waits its
	// turn behind any other compile of the same tree.
	if p.remote == nil {
		release, err := holdTree(ctx, job.Root)
		if err != nil {
			return nil, err
		}
		defer release()
	}
	start := time.Now()
	root := job.Root
	gran := opts.Granularity
	if gran == 0 {
		gran = tree.GranularityFor(root, opts.Fragments)
	}
	// The parser side, same policy as the cluster. A remote job
	// linearizes each planned fragment straight from the caller's tree,
	// which it does not write. A local job cuts the caller's tree at the
	// planned points: each fragment evaluator writes into the tree's own
	// attribute slots, and the cuts are undone once the job is
	// quiescent, on every return path below. A whole-tree hit cuts too:
	// the content address is made of the fragments' digests.
	planStart := time.Now()
	var decomp *tree.Decomposition
	var encoded [][]byte      // remote: the linearized fragments
	var leaves [][]*tree.Node // local: each fragment's remote leaves
	if p.remote != nil {
		decomp, encoded = tree.SplitEncode(root, gran, opts.Fragments)
	} else {
		var undo func()
		decomp, leaves, undo = tree.SplitInPlace(root, gran, opts.Fragments)
		defer undo()
	}
	res := &Result{
		Frags:   decomp.NumFragments(),
		Workers: opts.Workers,
		Decomp:  decomp,
		PlanStats: PlanStats{
			PlanTime: time.Since(planStart),
			Width:    opts.Fragments,
			Balance:  decomp.Balance(),
		},
	}
	if p.remote != nil {
		return p.remoteJob(ctx, job, opts, encoded, res, start)
	}
	useCache := p.cache != nil && !opts.NoCache

	codeAttr := cluster.CodeAttr(job.G)

	// Complete the content address now that the decomposition is known.
	// A hit, from memory or from disk, is the job's result: the
	// recording's root attributes and counters are returned and no
	// fragment runs. A miss evaluates every fragment live and, once the
	// job completes cleanly, records its result.
	var key cacheKey
	var dk cas.Key
	if useCache {
		key = cacheKey{
			g:         job.G,
			fragsHash: tree.CombineDigests(decomp.Digests()),
			frags:     res.Frags,
			width:     opts.Fragments,
			gran:      gran,
		}
		hit, _ := p.cache.get(key)
		if hit == nil && p.disk != nil {
			dk = p.diskKey(&key, job.UIDs)
			// Memory missed; try the persistent tier. A loaded result is
			// published to the in-memory cache, so later identical trees
			// hit memory, and serves this job as a hit.
			if e := p.disk.load(dk, job.G); e != nil {
				p.cache.put(key, e)
				hit = e
			}
		}
		if hit != nil {
			res.RootAttrs = append([]ag.Value(nil), hit.rootAttrs...)
			res.PerFrag = make([]eval.Stats, res.Frags)
			res.Messages = hit.messages
			lookupDone := time.Now()
			splice(res, codeAttr)
			p.finish(res, start, lookupDone, lookupDone)
			return res, nil
		}
	}

	r := &rt{
		job:       job,
		leafOf:    make(map[int]*tree.Node),
		sched:     p.sched,
		ctx:       ctx,
		quiet:     make(chan struct{}),
		rootAttrs: make([]ag.Value, len(job.G.Start.Attrs)),
	}
	for _, f := range decomp.Frags {
		// queued is set here, while the job is still private to this
		// goroutine: the moment the first fragment is pushed, workers
		// may start posting to its siblings, and those reads of queued
		// (under the mailbox lock) must not race the seeding loop.
		fr := &frag{r: r, id: f.ID, parent: f.Parent, root: f.Root, leaves: leaves[f.ID], queued: true}
		r.frags = append(r.frags, fr)
		for _, leaf := range fr.leaves {
			r.leafOf[leaf.RemoteID] = leaf
		}
	}

	// Seed every fragment round-robin across the worker deques, then
	// wait for this job's quiescence. Workers may start stepping the
	// first fragment before the last is pushed; pending is preset so
	// the job cannot look quiescent early. Cancellation needs no
	// watcher: every step checks the job's context (rt.stopped), and
	// the workers reclaim a cancelled job's fragments as they pop them.
	r.pending.Store(int64(len(r.frags)))
	for _, f := range r.frags {
		r.sched.push(f.id%p.workers, f)
	}
	splitDone := time.Now()

	<-r.quiet
	evalDone := time.Now()

	if int(r.doneCnt.Load()) != len(r.frags) {
		// An evaluation failure (a recovered panic) takes precedence:
		// fail() also flips cancelled to reclaim the job's remaining
		// fragments, and the failure — not the cancellation it
		// triggered — is the job's outcome.
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
			cluster.Combined, opts.Workers, blocked)
	}

	res.RootAttrs = r.rootAttrs
	res.Messages = int(r.messages.Load())
	for _, f := range r.frags {
		res.PerFrag = append(res.PerFrag, f.stats)
		res.Stats.Add(f.stats)
	}
	splice(res, codeAttr)
	// Record the clean run's result. The code attribute has been
	// flattened to one leaf by now, so a hit returns the program
	// without walking the rope again.
	if useCache {
		entry := &cacheEntry{
			rootAttrs: append([]ag.Value(nil), r.rootAttrs...),
			messages:  res.Messages,
		}
		p.cache.put(key, entry)
		if p.disk != nil {
			p.disk.spill(dk, entry, job.G)
		}
	}
	p.finish(res, start, splitDone, evalDone)
	return res, nil
}

// remoteJob evaluates the planned fragments of an admitted job on the
// RemoteEvaluator, then splices and files the result like a local
// job's. Remote jobs bypass the cache.
func (p *Pool) remoteJob(ctx context.Context, job cluster.Job, opts Options, encoded [][]byte, res *Result, start time.Time) (*Result, error) {
	splitDone := time.Now()
	if err := p.remote.Evaluate(ctx, job, opts, res.Decomp, encoded, res); err != nil {
		return nil, err
	}
	evalDone := time.Now()
	splice(res, cluster.CodeAttr(job.G))
	p.finish(res, start, splitDone, evalDone)
	return res, nil
}

// splice sets res.Program from the code attribute of res.RootAttrs, if
// the grammar has one, and replaces the attribute by the program as a
// single leaf. Root attributes hold no librarian handle: the pool keeps
// no librarian, and a RemoteEvaluator resolves its handles before it
// returns.
func splice(res *Result, codeAttr int) {
	if codeAttr < 0 {
		return
	}
	code, ok := res.RootAttrs[codeAttr].(rope.Code)
	if !ok {
		return
	}
	res.Program = rope.FlattenCode(code, nil)
	res.RootAttrs[codeAttr] = rope.Leaf(res.Program)
}

// finish stamps the phase timings on a completed job's result and
// files the plan observability counters (pool stats + pag_plan_*
// metrics), for cold runs and whole-tree hits alike.
func (p *Pool) finish(res *Result, start, splitDone, evalDone time.Time) {
	now := time.Now()
	res.SplitTime = splitDone.Sub(start)
	res.EvalTime = evalDone.Sub(splitDone)
	res.SpliceTime = now.Sub(evalDone)
	res.WallTime = now.Sub(start)
	p.messagesTotal.Add(int64(res.Messages))
	p.lastBalance.Store(math.Float64bits(res.PlanStats.Balance))
	p.m.observePlan(&res.PlanStats)
}
