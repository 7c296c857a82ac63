package fleet

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	mrand "math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"pag/internal/ag"
	"pag/internal/cluster"
	"pag/internal/eval"
	"pag/internal/parallel"
	"pag/internal/rope"
	"pag/internal/tree"
)

// CoordinatorOptions configures a Coordinator.
type CoordinatorOptions struct {
	// Client is the health-checked worker pool; nil evaluates every
	// fragment on the in-process fallback worker (useful for tests,
	// pointless in production).
	Client *Client
	// Retries is how many times one RPC is retried against the same
	// placement (transport failures, corrupt payloads) before the
	// fragment gives up on that worker and requeues; <= 0 uses 3.
	Retries int
	// Backoff is the base of the exponential retry backoff (doubling
	// per attempt, jittered into [d/2, d)); <= 0 uses 25ms. MaxBackoff
	// caps it; <= 0 uses 1s.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Seed seeds the backoff jitter (0 is replaced by 1). Jitter
	// affects timing only, never results.
	Seed int64
}

// Coordinator is the parser side of a distributed compilation: it
// decomposes and splices locally — making exactly the cuts of the
// simulated cluster's parser and the pool's compile body — but
// evaluates fragments on remote workers through the Client. It encodes
// the fragments straight from the job's tree without writing to it, so
// one Job may be compiled by many callers at once. It implements
// parallel.RemoteEvaluator, so a parallel.Pool routes admitted jobs
// here when PoolOptions.Remote is set.
//
// Failure policy, per fragment: an RPC that fails in transit or
// arrives corrupt is retried against the same placement with
// exponential backoff + jitter (supply retries are idempotent via
// session sequence numbers); a placement that stays dead — or answers
// 404/409/503 — requeues the fragment to another ready worker, where
// its journal replays; and when no worker is ready at all the fragment
// degrades to the in-process fallback worker, so a compilation can
// lose every worker and still complete.
type Coordinator struct {
	client  *Client
	local   *Worker
	retries int
	backoff time.Duration
	maxBack time.Duration

	rngMu sync.Mutex
	rng   *mrand.Rand

	analyses   sync.Map // *ag.Grammar -> *ag.Analysis
	registered sync.Map // *ag.Grammar -> bool

	remoteFrags atomic.Int64
	localFrags  atomic.Int64
	retryCount  atomic.Int64
	requeues    atomic.Int64
	corrupt     atomic.Int64
	degraded    atomic.Int64
}

// NewCoordinator builds a coordinator. The caller owns the Client's
// lifecycle (Start/Stop).
func NewCoordinator(opts CoordinatorOptions) *Coordinator {
	if opts.Retries <= 0 {
		opts.Retries = 3
	}
	if opts.Backoff <= 0 {
		opts.Backoff = 25 * time.Millisecond
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = time.Second
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	return &Coordinator{
		client:  opts.Client,
		local:   NewWorker(),
		retries: opts.Retries,
		backoff: opts.Backoff,
		maxBack: opts.MaxBackoff,
		rng:     mrand.New(mrand.NewSource(seed)),
	}
}

// LocalWorker exposes the in-process fallback worker (tests register
// extra grammars or inspect sessions through it).
func (co *Coordinator) LocalWorker() *Worker { return co.local }

// FleetStats implements parallel.RemoteEvaluator.
func (co *Coordinator) FleetStats() parallel.FleetStats {
	fs := parallel.FleetStats{
		RemoteFrags:      co.remoteFrags.Load(),
		LocalFrags:       co.localFrags.Load(),
		Retries:          co.retryCount.Load(),
		Requeues:         co.requeues.Load(),
		CorruptResponses: co.corrupt.Load(),
		DegradedJobs:     co.degraded.Load(),
	}
	if co.client != nil {
		fs.Workers, fs.ReadyWorkers = co.client.counts()
		fs.WorkerTransitions = co.client.Transitions()
	}
	return fs
}

func (co *Coordinator) analysisFor(g *ag.Grammar) (*ag.Analysis, error) {
	if a, ok := co.analyses.Load(g); ok {
		return a.(*ag.Analysis), nil
	}
	a, err := ag.Analyze(g)
	if err != nil {
		return nil, err
	}
	actual, _ := co.analyses.LoadOrStore(g, a)
	return actual.(*ag.Analysis), nil
}

// ensureLocal registers the job's grammar on the fallback worker, once
// per grammar.
func (co *Coordinator) ensureLocal(job cluster.Job) {
	if _, ok := co.registered.Load(job.G); ok {
		return
	}
	co.local.Register(job.G, job.A, job.Lex)
	co.registered.Store(job.G, true)
}

// backoffFor returns the jittered exponential delay of retry attempt n
// (0-based).
func (co *Coordinator) backoffFor(attempt int) time.Duration {
	d := co.backoff
	for i := 0; i < attempt && d < co.maxBack; i++ {
		d *= 2
	}
	if d > co.maxBack {
		d = co.maxBack
	}
	return jitter(co.rng, &co.rngMu, d)
}

// newSessionID mints the per-job session prefix.
func newSessionID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// CompileRemote implements parallel.RemoteEvaluator: one distributed
// compilation, byte-identical to cluster.Run and Pool.Compile at the
// same width.
func (co *Coordinator) CompileRemote(ctx context.Context, job cluster.Job, opts parallel.Options) (*parallel.Result, error) {
	if opts.Mode == 0 {
		opts.Mode = cluster.Combined
	}
	if opts.Mode == cluster.Combined && job.A == nil {
		a, err := co.analysisFor(job.G)
		if err != nil {
			return nil, fmt.Errorf("fleet: combined mode: %w", err)
		}
		job.A = a
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
		if co.client != nil && len(co.client.workers) > 0 {
			opts.Workers = len(co.client.workers)
		}
	}
	if opts.Fragments <= 0 {
		opts.Fragments = opts.Workers
	}
	if opts.Librarian && opts.Fragments > rope.MaxHandleRanges {
		return nil, fmt.Errorf("fleet: %d fragments exceed the librarian's %d handle ranges",
			opts.Fragments, rope.MaxHandleRanges)
	}
	// Results (and every fragment boundary) cross a real network here:
	// reject grammars whose start symbol cannot be serialized, like the
	// cluster does.
	for _, ai := range job.G.Start.Syn() {
		if job.G.Start.Attrs[ai].Codec == nil {
			return nil, fmt.Errorf("fleet: start symbol %s attribute %s needs a Codec (results return over the network)",
				job.G.Start.Name, job.G.Start.Attrs[ai].Name)
		}
	}
	start := time.Now()

	// The coordinator never evaluates, so it never needs a private copy
	// of the tree: SplitEncode plans the cuts and linearizes each
	// fragment straight from the caller's tree, which it does not write.
	root := job.Root
	gran := opts.Granularity
	if gran == 0 {
		gran = tree.GranularityFor(root, opts.Fragments)
	}
	planStart := time.Now()
	var costOf func(*ag.Symbol) int
	if opts.Planner == tree.PlanCost {
		// Same pure grammar plan as the local pool and the simulator,
		// so fleet decompositions are identical at equal width.
		if job.A != nil {
			costOf = job.A.CutPlan().CostOf()
		} else {
			costOf = ag.NewCutPlan(job.G, nil).CostOf()
		}
	}
	decomp, encoded := tree.SplitEncode(root, gran, opts.Fragments, opts.Planner, costOf)
	planTime := time.Since(planStart)
	codeAttr := cluster.CodeAttr(job.G)
	useLib := opts.Librarian && codeAttr >= 0
	co.ensureLocal(job)

	uids := make([]wireUID, len(job.UIDs))
	for i, k := range job.UIDs {
		uids[i] = wireUID{Sym: k.Sym.Index, Base: k.Base, Count: k.Count}
	}

	jctx, cancel := context.WithCancel(ctx)
	defer cancel()
	j := &fjob{
		co:     co,
		ctx:    jctx,
		cancel: cancel,
		job:    job,
		opts:   opts,
		useLib: useLib,
		uids:   uids,
		store:  map[int32]string{},
		roots:  map[int]rootOut{},
		failed: make(chan struct{}),
	}
	sid := newSessionID()
	for _, fr := range decomp.Frags {
		j.frags = append(j.frags, &cfrag{
			id:        fr.ID,
			parent:    fr.Parent,
			session:   fmt.Sprintf("%s-%d", sid, fr.ID),
			data:      encoded[fr.ID],
			uidBase:   cluster.UIDBaseFor(fr.ID),
			wake:      make(chan struct{}, 1),
			sentOut:   map[outKey]bool{},
			seenStore: map[int32]bool{},
			seenRoot:  map[int]bool{},
		})
	}
	j.busy = len(j.frags)
	splitDone := time.Now()

	var wg sync.WaitGroup
	for _, f := range j.frags {
		wg.Add(1)
		go func(f *cfrag) {
			defer wg.Done()
			j.runFrag(f)
		}(f)
	}
	wg.Wait()
	evalDone := time.Now()

	if j.failErr != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, j.failErr
	}

	res := &parallel.Result{
		RootAttrs: make([]ag.Value, len(job.G.Start.Attrs)),
		Frags:     decomp.NumFragments(),
		Workers:   opts.Workers,
		Decomp:    decomp,
		Messages:  j.messages,
		PlanStats: parallel.PlanStats{
			Planner:  opts.Planner.String(),
			PlanTime: planTime,
			Width:    opts.Fragments,
			Balance:  decomp.Balance(),
		},
	}
	for _, f := range j.frags {
		res.PerFrag = append(res.PerFrag, f.stats)
		res.Stats.Add(f.stats)
		if f.local {
			res.Degraded = res.Degraded || (co.client != nil && len(co.client.workers) > 0)
		} else if f.placed {
			res.RemoteFrags++
		}
	}
	res.FleetRetries = int(j.retries.Load())
	res.FleetRequeues = int(j.requeueN.Load())
	for _, ai := range job.G.Start.Syn() {
		rec, ok := j.roots[ai]
		if !ok {
			return nil, fmt.Errorf("fleet: root attribute %s never arrived", job.G.Start.Attrs[ai].Name)
		}
		if rec.Ship {
			v, err := (rope.CodeCodec{Librarian: true}).DecodeShip(rec.Data)
			if err != nil {
				return nil, fmt.Errorf("fleet: decoding root descriptor: %w", err)
			}
			text := v.(*rope.Descriptor).Resolve(func(h int32) string { return j.store[h] })
			res.Program = text
			// Like the pool, the returned code attribute is consumable
			// with no librarian in sight.
			res.RootAttrs[ai] = rope.Leaf(text)
			continue
		}
		v, err := job.G.Start.Attrs[ai].Codec.Decode(rec.Data)
		if err != nil {
			return nil, fmt.Errorf("fleet: decoding root attribute %s: %w", job.G.Start.Attrs[ai].Name, err)
		}
		res.RootAttrs[ai] = v
		if ai == codeAttr {
			if code, ok := v.(rope.Code); ok {
				res.Program = rope.FlattenCode(code, nil)
			}
		}
	}
	res.StoredStrings = len(j.store)
	res.StoredBytes = j.storeBytes
	now := time.Now()
	res.SplitTime = splitDone.Sub(start)
	res.EvalTime = evalDone.Sub(splitDone)
	res.SpliceTime = now.Sub(evalDone)
	res.WallTime = now.Sub(start)
	return res, nil
}

// outKey dedups one fragment's routed outputs across journal replays:
// attribute instances are single-assignment, so (direction, fragment,
// attr) names an output uniquely.
type outKey struct {
	up   bool
	frag int
	attr int
}

// cfrag is the coordinator-side state of one fragment.
type cfrag struct {
	id      int
	parent  int
	session string
	data    []byte
	uidBase int

	// journal is every supply batch delivered so far, in order — the
	// replay log a requeue rebuilds the session from.
	journal [][]wireMsg

	worker *workerRef // current remote placement (nil when local)
	placed bool       // at least one open succeeded somewhere
	local  bool       // pinned to the in-process fallback worker

	// Dedup state for replayed responses; guarded by fjob.mu.
	sentOut   map[outKey]bool
	seenStore map[int32]bool
	seenRoot  map[int]bool

	// Mailbox; guarded by fjob.mu.
	inbox   []wireMsg
	waiting bool
	wake    chan struct{}

	finished bool
	stats    eval.Stats
}

// fjob is one distributed compilation in flight.
type fjob struct {
	co     *Coordinator
	ctx    context.Context
	cancel context.CancelFunc
	job    cluster.Job
	opts   parallel.Options
	useLib bool
	uids   []wireUID

	mu         sync.Mutex
	frags      []*cfrag
	busy       int // fragments not parked waiting for input
	doneCnt    int
	store      map[int32]string
	storeBytes int
	roots      map[int]rootOut
	messages   int
	// degradedMarked: this job already counted toward degraded_jobs.
	degradedMarked bool

	retries  atomic.Int64
	requeueN atomic.Int64

	failOnce sync.Once
	failErr  error
	failed   chan struct{}
}

func (j *fjob) fail(err error) {
	j.failOnce.Do(func() {
		j.failErr = err
		close(j.failed)
		j.cancel()
	})
}

// noteRetry / noteRequeue count into both the job result and the
// coordinator's lifetime counters.
func (j *fjob) noteRetry() {
	j.retries.Add(1)
	j.co.retryCount.Add(1)
}

func (j *fjob) noteRequeue() {
	j.requeueN.Add(1)
	j.co.requeues.Add(1)
}

// runFrag drives one fragment to completion: place (open), then route
// and supply until its evaluator reports done.
func (j *fjob) runFrag(f *cfrag) {
	defer func() {
		if f.worker != nil {
			j.co.client.release(f.worker)
			f.worker = nil
		}
	}()
	resp, err := j.place(f)
	if err != nil {
		j.fail(err)
		return
	}
	for {
		if err := j.handle(f, resp); err != nil {
			j.fail(err)
			return
		}
		if f.finished {
			j.closeSession(f)
			return
		}
		// A worker that stopped early to ship a priority value (routed
		// by handle just now) is continued at once, with whatever input
		// has already arrived; otherwise the fragment parks for input.
		batch, ok := j.nextBatch(f, !resp.More)
		if !ok {
			return
		}
		resp, err = j.supply(f, batch)
		if err != nil {
			j.fail(err)
			return
		}
	}
}

// failKind classifies an RPC failure.
type failKind int

const (
	failRetry   failKind = iota // transient against this placement: retry here
	failRequeue                 // placement lost: move to another worker
	failFatal                   // the job is broken, not the worker
)

func classify(err error) failKind {
	var se *StatusError
	if errors.As(err, &se) {
		switch se.Code {
		case http.StatusBadRequest:
			// The worker saw a corrupt request: the payload mangled in
			// flight. Transient.
			return failRetry
		case http.StatusNotFound, http.StatusConflict, http.StatusServiceUnavailable:
			// Session gone (worker restarted), history out of sync, or
			// draining/saturated: rebuild elsewhere.
			return failRequeue
		default:
			// 422: the job itself is unevaluable; no worker will differ.
			return failFatal
		}
	}
	if errors.Is(err, errCorrupt) {
		return failRetry
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		// The per-call deadline expired (a hung worker) — the job ctx
		// case is checked by callers before classification.
		return failRequeue
	}
	// Plain transport failure: connection refused/reset. The worker may
	// be dead or the network blinked; retry here, requeue if it stays.
	return failRetry
}

// rpc runs one RPC against a live placement with same-worker retries:
// transient failures (transport, corruption either direction) back off
// exponentially with jitter and try again up to the retry budget.
// Corrupt payloads are counted and discarded — never parsed into
// results.
func (j *fjob) rpc(w *workerRef, path string, body []byte) (*evalResp, error) {
	co := j.co
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := j.ctx.Err(); err != nil {
			return nil, err
		}
		raw, err := co.client.do(j.ctx, w, path, body)
		if err == nil {
			var resp evalResp
			if uerr := unsealJSON(raw, &resp); uerr == nil {
				return &resp, nil
			} else {
				err = uerr
			}
		}
		lastErr = err
		if err := j.ctx.Err(); err != nil {
			return nil, err
		}
		if errors.Is(err, errCorrupt) {
			co.corrupt.Add(1)
		} else if se := (*StatusError)(nil); errors.As(err, &se) && se.Code == http.StatusBadRequest {
			co.corrupt.Add(1)
		}
		if classify(err) != failRetry || attempt >= co.retries {
			return nil, lastErr
		}
		j.noteRetry()
		if !j.sleep(co.backoffFor(attempt)) {
			return nil, j.ctx.Err()
		}
	}
}

// sleep waits d or until the job dies.
func (j *fjob) sleep(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-j.failed:
		return false
	case <-j.ctx.Done():
		return false
	}
}

// place opens the fragment's session somewhere: the least-loaded ready
// worker, the next one when that fails, the in-process fallback when
// no worker is ready. Re-placements after a failure count as requeues;
// the journal replays the fragment's whole history at the new home.
func (j *fjob) place(f *cfrag) (*evalResp, error) {
	co := j.co
	requeue := f.placed
	attempt := 0
	for {
		if err := j.ctx.Err(); err != nil {
			return nil, err
		}
		var w *workerRef
		if co.client != nil && !f.local {
			w = co.client.pick()
		}
		if w == nil {
			if requeue {
				j.noteRequeue()
			}
			return j.openLocal(f)
		}
		body, err := sealJSON(j.openReqFor(f))
		if err != nil {
			co.client.release(w)
			return nil, fmt.Errorf("fleet: encoding open: %w", err)
		}
		resp, err := j.rpc(w, pathOpen, body)
		if err == nil {
			if requeue {
				j.noteRequeue()
			}
			f.worker = w
			f.placed = true
			co.remoteFrags.Add(1)
			return resp, nil
		}
		co.client.release(w)
		if err2 := j.ctx.Err(); err2 != nil {
			return nil, err2
		}
		if classify(err) == failFatal {
			return nil, err
		}
		// Mark the worker so no other fragment routes there, then move
		// on: a drained worker is unready, a dead one unhealthy.
		if se := (*StatusError)(nil); errors.As(err, &se) && se.Code == http.StatusServiceUnavailable {
			co.client.setState(w, stateUnready)
		} else {
			co.client.markFailed(w)
		}
		requeue = true
		attempt++
		if !j.sleep(co.backoffFor(attempt - 1)) {
			return nil, j.ctx.Err()
		}
	}
}

// openReqFor assembles the (re)open request, journal included.
func (j *fjob) openReqFor(f *cfrag) openReq {
	return openReq{
		Session:    f.session,
		Grammar:    j.job.G.Name,
		Frag:       f.id,
		Mode:       int(j.opts.Mode),
		Librarian:  j.useLib,
		UIDPreset:  j.opts.UIDPreset,
		NoPriority: j.opts.NoPriority,
		Yield:      true,
		UIDBase:    f.uidBase,
		UIDs:       j.uids,
		Tree:       f.data,
		Journal:    f.journal,
	}
}

// openLocal degrades the fragment to the in-process fallback worker —
// the "no worker is healthy" path. Local evaluation cannot fail
// transiently; any error here is the job's.
func (j *fjob) openLocal(f *cfrag) (*evalResp, error) {
	co := j.co
	if !f.local {
		f.local = true
		co.localFrags.Add(1)
		if co.client != nil && len(co.client.workers) > 0 {
			j.mu.Lock()
			first := !j.degradedMarked
			j.degradedMarked = true
			j.mu.Unlock()
			if first {
				co.degraded.Add(1)
			}
		}
	}
	return j.localRPC(pathOpen, j.openReqFor(f))
}

// localRPC serves one RPC on the fallback worker, in-process.
func (j *fjob) localRPC(path string, req any) (*evalResp, error) {
	body, err := sealJSON(req)
	if err != nil {
		return nil, fmt.Errorf("fleet: encoding local %s: %w", path, err)
	}
	code, raw := j.co.local.ServeRPC(path, body)
	if code != http.StatusOK {
		return nil, fmt.Errorf("fleet: local evaluation: %s", raw)
	}
	var resp evalResp
	if err := unsealJSON(raw, &resp); err != nil {
		return nil, fmt.Errorf("fleet: local evaluation: %w", err)
	}
	return &resp, nil
}

// supply journals and delivers one batch. A placement that stays dead
// through the retry budget requeues: place() reopens the session
// (journal included, so the batch is not lost) on another worker and
// its open response stands in for the supply response — dedup in
// handle() discards whatever the replay repeats.
func (j *fjob) supply(f *cfrag, batch []wireMsg) (*evalResp, error) {
	f.journal = append(f.journal, batch)
	req := supplyReq{Session: f.session, Seq: len(f.journal), Msgs: batch}
	if f.local {
		return j.localRPC(pathSupply, req)
	}
	body, err := sealJSON(req)
	if err != nil {
		return nil, fmt.Errorf("fleet: encoding supply: %w", err)
	}
	resp, err := j.rpc(f.worker, pathSupply, body)
	if err == nil {
		return resp, nil
	}
	if err2 := j.ctx.Err(); err2 != nil {
		return nil, err2
	}
	if classify(err) == failFatal {
		return nil, err
	}
	// The placement is gone (dead worker, lost session, drained): mark
	// it, drop it, and let place() find the fragment a new home.
	if se := (*StatusError)(nil); errors.As(err, &se) && (se.Code == http.StatusServiceUnavailable || se.Code == http.StatusConflict) {
		j.co.client.setState(f.worker, stateUnready)
	} else if se == nil || se.Code != http.StatusNotFound {
		j.co.client.markFailed(f.worker)
	}
	j.co.client.release(f.worker)
	f.worker = nil
	return j.place(f)
}

// closeSession releases the fragment's placement and discards its
// worker-side session, best-effort.
func (j *fjob) closeSession(f *cfrag) {
	body, err := sealJSON(closeReq{Session: f.session})
	if err != nil {
		return
	}
	if f.local {
		j.co.local.ServeRPC(pathClose, body)
		return
	}
	if f.worker == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	j.co.client.transport.Do(ctx, f.worker.addr, pathClose, body) //nolint:errcheck // hygiene only; sessions die with the worker anyway
	cancel()
	j.co.client.release(f.worker)
	f.worker = nil
}

// handle routes one response: stores into the coordinator's librarian
// store, root attributes aside, attribute messages into sibling
// inboxes (waking parked fragments). Everything is deduped so journal
// replays after a requeue are harmless.
func (j *fjob) handle(f *cfrag, resp *evalResp) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, st := range resp.Stores {
		if f.seenStore[st.Handle] {
			continue
		}
		f.seenStore[st.Handle] = true
		j.store[st.Handle] = st.Text
		j.storeBytes += len(st.Text)
	}
	for _, rt := range resp.Roots {
		if f.seenRoot[rt.Attr] {
			continue
		}
		f.seenRoot[rt.Attr] = true
		j.roots[rt.Attr] = rt
	}
	for _, m := range resp.Msgs {
		k := outKey{up: m.Up, frag: m.Frag, attr: m.Attr}
		if f.sentOut[k] {
			continue
		}
		f.sentOut[k] = true
		var target *cfrag
		var wm wireMsg
		if m.Up {
			if f.parent < 0 || f.parent >= len(j.frags) {
				return fmt.Errorf("fleet: fragment %d has no parent for upward attr", f.id)
			}
			target = j.frags[f.parent]
			wm = wireMsg{Leaf: m.Frag, Attr: m.Attr, Data: m.Data}
		} else {
			if m.Frag < 0 || m.Frag >= len(j.frags) {
				return fmt.Errorf("fleet: fragment %d routed attr to unknown fragment %d", f.id, m.Frag)
			}
			target = j.frags[m.Frag]
			wm = wireMsg{Leaf: rootLeaf, Attr: m.Attr, Data: m.Data}
		}
		j.messages++
		target.inbox = append(target.inbox, wm)
		if target.waiting {
			target.waiting = false
			j.busy++
			select {
			case target.wake <- struct{}{}:
			default:
			}
		}
	}
	if resp.Done && !f.finished {
		f.finished = true
		f.stats = resp.Stats
		j.doneCnt++
		j.busy--
		j.checkStalledLocked()
	}
	return nil
}

// nextBatch takes the fragment's input; with wait it parks the
// fragment until some arrives (or the job dies).
func (j *fjob) nextBatch(f *cfrag, wait bool) ([]wireMsg, bool) {
	for {
		j.mu.Lock()
		if len(f.inbox) > 0 || !wait {
			batch := f.inbox
			f.inbox = nil
			j.mu.Unlock()
			return batch, true
		}
		f.waiting = true
		j.busy--
		j.checkStalledLocked()
		j.mu.Unlock()
		select {
		case <-f.wake:
		case <-j.failed:
			return nil, false
		case <-j.ctx.Done():
			j.fail(j.ctx.Err())
			return nil, false
		}
	}
}

// checkStalledLocked detects global quiescence with unfinished
// fragments: every fragment parked, none processing — the distributed
// equivalent of the pool's deadlock report.
func (j *fjob) checkStalledLocked() {
	if j.busy > 0 || j.doneCnt == len(j.frags) || j.failErr != nil {
		return
	}
	var stuck []int
	for _, f := range j.frags {
		if !f.finished {
			stuck = append(stuck, f.id)
		}
	}
	j.fail(fmt.Errorf("fleet: %s evaluation deadlocked; fragments %v blocked with no input in flight", j.opts.Mode, stuck))
}
