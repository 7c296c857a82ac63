package fleet

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	mrand "math/rand"
	"net/http"
	"slices"
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

// Coordinator is the fleet's evaluator side: it evaluates the
// fragments a parallel.Pool has planned and encoded on remote workers
// through the Client, and hands back what they produced for the pool
// to splice. It implements parallel.RemoteEvaluator, so a pool routes
// admitted jobs here when PoolOptions.Remote is set; the pool keeps
// the parser side (options, analysis, split, splice), the coordinator
// only places, evaluates and routes.
//
// A job's fragments run on the pool's job runtime (parallel.Runtime),
// which decides when the job is done, failed, cancelled or deadlocked.
// Failure policy, per fragment: an RPC that fails in transit or
// arrives corrupt is retried against the same placement with
// exponential backoff + jitter (supply retries are idempotent via
// session sequence numbers); a placement that stays dead — or answers
// 404/409/503 — requeues the fragment to another ready worker, where
// its journal replays; and when no worker is ready at all the fragment
// degrades to the in-process fallback worker, so a compilation can
// lose every worker and still complete. A permanent refusal (422) fails
// the job with that error and cancels its other fragments' RPCs and
// backoffs; a cancelled ctx fails it with ctx's error.
type Coordinator struct {
	client  *Client
	local   *Worker
	retries int
	backoff time.Duration
	maxBack time.Duration

	rngMu sync.Mutex
	rng   *mrand.Rand

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

// Evaluate implements parallel.RemoteEvaluator: it evaluates the
// pool's planned fragments on the fleet and fills res with what they
// produced, byte-identical to cluster.Run and a local Pool.Compile at
// the same width.
func (co *Coordinator) Evaluate(ctx context.Context, job cluster.Job, opts parallel.Options, decomp *tree.Decomposition, encoded [][]byte, res *parallel.Result) error {
	// Results (and every fragment boundary) cross a real network here:
	// reject grammars whose start symbol cannot be serialized, like the
	// cluster does.
	for _, ai := range job.G.Start.Syn() {
		if job.G.Start.Attrs[ai].Codec == nil {
			return fmt.Errorf("fleet: start symbol %s attribute %s needs a Codec (results return over the network)",
				job.G.Start.Name, job.G.Start.Attrs[ai].Name)
		}
	}
	// The coordinator owns the fleet's librarian: each fragment
	// allocates handles from its own range, so the decomposition may
	// not be wider than the ranges (they would wrap and collide).
	if n := decomp.NumFragments(); n > rope.MaxHandleRanges {
		return fmt.Errorf("fleet: %d fragments exceed the librarian's %d handle ranges", n, rope.MaxHandleRanges)
	}
	co.ensureLocal(job)
	uids := make([]wireUID, len(job.UIDs))
	for i, k := range job.UIDs {
		uids[i] = wireUID{Sym: k.Sym.Index, Base: k.Base, Count: k.Count}
	}

	rt := parallel.NewRuntime[wireMsg](ctx)
	j := co.newJob(rt, job, uids, decomp, encoded)
	rt.Start()
	err := rt.Wait()
	// A finished fragment closed its session as it finished; close the
	// rest, whether the job failed, was cancelled or deadlocked.
	for _, f := range j.frags {
		if !f.finished {
			j.closeSession(f)
		}
	}
	if err != nil {
		return err
	}

	res.Messages = rt.Messages()
	for _, f := range j.frags {
		res.PerFrag = append(res.PerFrag, f.stats)
		res.Stats.Add(f.stats)
		if f.placed && !f.local {
			res.RemoteFrags++
		}
	}
	res.Degraded = j.degraded.Load()
	res.FleetRetries = int(j.retries.Load())
	res.FleetRequeues = int(j.requeueN.Load())
	res.RootAttrs = make([]ag.Value, len(job.G.Start.Attrs))
	for _, ai := range job.G.Start.Syn() {
		rec, ok := j.roots[ai]
		if !ok {
			return fmt.Errorf("fleet: root attribute %s never arrived", job.G.Start.Attrs[ai].Name)
		}
		v, err := cluster.DecodeResult(job.G, ai, rec.Data, rec.Ship, func(h int32) string { return j.store[h] })
		if err != nil {
			return fmt.Errorf("fleet: %w", err)
		}
		res.RootAttrs[ai] = v
	}
	res.StoredStrings = len(j.store)
	res.StoredBytes = j.storeBytes
	return nil
}

// newJob builds the coordinator-side state of one job on rt: a
// fragment per planned fragment, encoded[i] being fragment i's subtree.
func (co *Coordinator) newJob(rt *parallel.Runtime[wireMsg], job cluster.Job, uids []wireUID, decomp *tree.Decomposition, encoded [][]byte) *fjob {
	j := &fjob{
		co:    co,
		rt:    rt,
		ctx:   rt.Context(),
		job:   job,
		uids:  uids,
		store: map[int32]string{},
		roots: map[int]rootOut{},
	}
	sid := newSessionID()
	for _, fr := range decomp.Frags {
		f := &cfrag{
			j:       j,
			id:      fr.ID,
			parent:  fr.Parent,
			session: fmt.Sprintf("%s-%d", sid, fr.ID),
			data:    encoded[fr.ID],
			sentOut: map[outKey]bool{},
		}
		j.frags = append(j.frags, f)
		rt.Add(&f.Actor, f)
	}
	return j
}

// outKey dedups one fragment's routed outputs across journal replays:
// attribute instances are single-assignment, so (direction, fragment,
// attr) names an output uniquely.
type outKey struct {
	up   bool
	frag int
	attr int
}

// cfrag is the coordinator-side state of one fragment: the Body that
// drives its remote session on the job runtime.
type cfrag struct {
	parallel.Actor[wireMsg]
	j       *fjob
	id      int
	parent  int
	session string
	data    []byte

	// journal is every supply batch delivered so far, in order — the
	// replay log a requeue rebuilds the session from.
	journal [][]wireMsg

	worker *workerRef // current remote placement (nil when local)
	placed bool       // at least one open succeeded somewhere
	local  bool       // pinned to the in-process fallback worker

	// tried lists the workers whose open of this session failed on our
	// side (deadline, cancel, lost or corrupt response): the worker may
	// still have served it, so closeSession closes the session there
	// too.
	tried []*workerRef

	// sentOut dedups the routed outputs of replayed responses.
	sentOut map[outKey]bool

	finished bool
	stats    eval.Stats
}

// fjob is one distributed compilation in flight.
type fjob struct {
	co   *Coordinator
	rt   *parallel.Runtime[wireMsg]
	ctx  context.Context // rt's: cancelled once the job fails
	job  cluster.Job
	uids []wireUID

	frags []*cfrag

	// mu guards the librarian store and the root attributes, which
	// every fragment writes.
	mu         sync.Mutex
	store      map[int32]string
	storeBytes int
	roots      map[int]rootOut

	// degraded: a fragment fell back to the in-process worker although
	// the fleet has workers (the job counts toward degraded_jobs).
	degraded atomic.Bool
	retries  atomic.Int64
	requeueN atomic.Int64
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

// Step is the remote fragment body: the first step places the
// fragment (opens its session), later ones supply the drained input;
// each routes the response. A worker that stopped early to ship a
// priority value is continued at once (More), with whatever input has
// already arrived. A finished fragment closes its session.
func (f *cfrag) Step(in []wireMsg) (parallel.Next, error) {
	j := f.j
	var resp *evalResp
	var err error
	if !f.placed && !f.local {
		resp, err = j.place(f)
	} else {
		// The journal keeps the batch; the runtime reuses in.
		resp, err = j.supply(f, append([]wireMsg(nil), in...))
	}
	if err == nil {
		err = j.handle(f, resp)
	}
	switch {
	case err != nil:
		return parallel.Done, err
	case f.finished:
		j.closeSession(f)
		return parallel.Done, nil
	case resp.More:
		return parallel.More, nil
	}
	return parallel.Park, nil
}

// Blocked implements parallel.Body: the coordinator cannot see which
// instances a remote session waits for.
func (f *cfrag) Blocked() []string { return nil }

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
			if uerr := unsealFrame(raw, &resp); uerr == nil {
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
		resp, err := j.rpc(w, pathOpen, sealFrame(j.openReqFor(f)))
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
		// Unless the worker answered with a refusal, it may have served
		// the open after all: close the session there when done.
		if se := (*StatusError)(nil); !errors.As(err, &se) && !slices.Contains(f.tried, w) {
			f.tried = append(f.tried, w)
		}
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
func (j *fjob) openReqFor(f *cfrag) *openReq {
	return &openReq{
		Session: f.session,
		Grammar: j.job.G.Name,
		Frag:    f.id,
		UIDBase: cluster.UIDBaseFor(f.id),
		UIDs:    j.uids,
		Tree:    f.data,
		Journal: f.journal,
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
		if co.client != nil && len(co.client.workers) > 0 && j.degraded.CompareAndSwap(false, true) {
			co.degraded.Add(1)
		}
	}
	return j.localRPC(pathOpen, j.openReqFor(f))
}

// localRPC serves one RPC on the fallback worker, in-process.
func (j *fjob) localRPC(path string, req wireFrame) (*evalResp, error) {
	code, raw := j.co.local.ServeRPC(path, sealFrame(req))
	if code != http.StatusOK {
		return nil, fmt.Errorf("fleet: local evaluation: %s", raw)
	}
	var resp evalResp
	if err := unsealFrame(raw, &resp); err != nil {
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
		return j.localRPC(pathSupply, &req)
	}
	resp, err := j.rpc(f.worker, pathSupply, sealFrame(&req))
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
// worker-side sessions: the placement's, and any a failed open may
// have left on a worker it tried. The closes are best-effort and
// fire-and-forget: the job never waits for them, so the worker's
// recycling of the session's storage stays off the job's critical
// path. Each goroutine ends with its RPC, within the close's
// one-second deadline.
func (j *fjob) closeSession(f *cfrag) {
	body := sealFrame(&closeReq{Session: f.session})
	for _, w := range f.tried {
		if w != f.worker {
			j.closeOn(w, body)
		}
	}
	f.tried = nil
	if f.local {
		go j.co.local.ServeRPC(pathClose, body)
		return
	}
	if f.worker == nil {
		return
	}
	j.closeOn(f.worker, body)
	j.co.client.release(f.worker)
	f.worker = nil
}

// closeOn sends a close to w without waiting for it.
func (j *fjob) closeOn(w *workerRef, body []byte) {
	transport, addr := j.co.client.transport, w.addr
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		transport.Do(ctx, addr, pathClose, body) //nolint:errcheck // hygiene only; sessions die with the worker anyway
	}()
}

// handle routes one response: stores into the coordinator's librarian
// store, root attributes aside, attribute messages into sibling
// mailboxes (waking parked fragments). Everything is deduped so journal
// replays after a requeue are harmless.
func (j *fjob) handle(f *cfrag, resp *evalResp) error {
	j.mu.Lock()
	// Handles come from per-fragment ranges and root attributes from
	// fragment 0 alone, so the job's maps dedup replays themselves.
	for _, st := range resp.Stores {
		if _, ok := j.store[st.Handle]; !ok {
			j.store[st.Handle] = st.Text
			j.storeBytes += len(st.Text)
		}
	}
	for _, rt := range resp.Roots {
		if _, ok := j.roots[rt.Attr]; !ok {
			j.roots[rt.Attr] = rt
		}
	}
	j.mu.Unlock()
	for _, m := range resp.Msgs {
		k := outKey{up: m.Up, frag: m.Frag, attr: m.Attr}
		if f.sentOut[k] {
			continue
		}
		f.sentOut[k] = true
		to, leaf := m.Frag, cluster.RootLeaf
		if m.Up {
			to, leaf = f.parent, m.Frag
		}
		if to < 0 || to >= len(j.frags) {
			return fmt.Errorf("fleet: fragment %d routed attr to unknown fragment %d", f.id, to)
		}
		j.rt.Post(&j.frags[to].Actor, []wireMsg{{Leaf: leaf, Attr: m.Attr, Data: m.Data}})
	}
	if resp.Done {
		f.finished, f.stats = true, resp.Stats
	}
	return nil
}
