// Package parallel is the real shared-memory parallel runtime of the
// reproduction: the paper's architecture (§2.1) mapped onto a modern
// multicore machine instead of the simulated 1987 network.
//
// The correspondence to the paper, piece by piece:
//
//   - The sequential parser that splits the parse tree is the calling
//     goroutine: it cuts the caller's tree in place with the same
//     granularity policy as the simulated cluster (internal/tree), and
//     each fragment evaluator works on its own subtree of it.
//   - The attribute evaluator machines become a pool of N worker
//     goroutines. Each tree fragment is an actor owning one combined or
//     dynamic evaluator (internal/eval); a fragment is scheduled onto a
//     worker whenever it has unprocessed input, and at most one worker
//     drives a given fragment at a time. Runnable fragments sit in
//     per-worker work-stealing deques (local LIFO push/pop, random
//     steal), not a single shared run queue.
//   - V-System IPC becomes message passing over per-fragment mailboxes:
//     inherited attributes of remote subtrees and synthesized
//     attributes of fragment roots travel between fragments as plain Go
//     values (attribute values are immutable by the purity requirement
//     on semantic rules, so sharing is safe). Messages are batched: a
//     fragment buffers its outbound values per destination while it
//     evaluates and delivers each batch under a single mailbox lock,
//     and the receiver drains its whole inbox under one acquisition.
//     Priority attributes (§4.3) skip the batch and ship immediately.
//   - The string librarian process becomes rope.Librarian, a
//     mutex-protected store: evaluators deposit generated text and
//     exchange O(1)-sized rope descriptors; the final program is
//     spliced once at the end (§4.3).
//
// The paper frames the evaluator machines as a standing facility that
// compilations are farmed out to (§3), and that is how the runtime is
// organized: Pool is the long-lived facility — worker goroutines,
// deques, shared read-only analyses — multiplexing many concurrent
// jobs, each isolated in its own fragment set and librarian handle
// namespace. Run wraps a whole Pool lifecycle around a single job.
//
// Because attribute evaluation is purely functional, the result is
// deterministic regardless of scheduling, and byte-identical to the
// simulated cluster runtime given the same decomposition.
package parallel

import (
	"context"
	"fmt"
	"reflect"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"pag/internal/ag"
	"pag/internal/cluster"
	"pag/internal/eval"
	"pag/internal/rope"
	"pag/internal/tree"
)

// Options configures one parallel compilation.
type Options struct {
	// Workers is the number of worker goroutines; <= 0 uses GOMAXPROCS.
	// On an existing Pool it only provides the Fragments default (the
	// pool's own width is fixed at NewPool time).
	Workers int
	// Fragments caps the decomposition; 0 splits into at most Workers
	// fragments (mirroring the cluster's one-fragment-per-machine
	// policy, so results are byte-identical to cluster.Run with
	// Machines == Workers). Larger values oversubscribe the pool.
	Fragments int
	// Mode selects the evaluation strategy (default Combined).
	Mode cluster.Mode
	// Librarian routes code attributes through a shared rope.Librarian:
	// fragments exchange O(1) descriptors instead of rope structure.
	// With the librarian enabled the effective Fragments request (and
	// hence the worker count it defaults from) must not exceed
	// rope.MaxHandleRanges; the run rejects wider requests up front
	// rather than risk silent handle-range collisions.
	Librarian bool
	// Granularity is the minimum linearized subtree size for a split;
	// 0 derives it from the tree size and fragment count.
	Granularity int
	// UIDPreset enables per-fragment unique-identifier bases (§4.3).
	UIDPreset bool
	// NoCache bypasses the pool's content-addressed fragment cache for
	// this job: nothing is looked up and nothing is recorded. Jobs on a
	// pool whose cache is disabled (PoolOptions.CacheBytes < 0) behave
	// as if NoCache were always set.
	NoCache bool
	// Client identifies the submitting client for per-client quota
	// accounting (PoolOptions.ClientQuota); the empty string is one
	// anonymous client. It has no effect on a pool without quotas.
	Client string
	// Priority is the job's admission class (default PriorityHigh).
	// When the pool is saturated, capacity freed by a finishing job
	// goes to waiting high-priority jobs before any low-priority one.
	Priority Priority
}

// Result is the outcome of a parallel compilation.
type Result struct {
	// RootAttrs holds the synthesized attributes of the tree root,
	// indexed by attribute index. The code attribute, if any, is always
	// a handle-free Code (librarian descriptors are resolved before the
	// run returns).
	RootAttrs []ag.Value
	// Program is the final code text, spliced via the librarian when
	// enabled, if the grammar has a code attribute.
	Program string
	// WallTime is the real elapsed time of the whole run, as measured
	// on this machine — the number the simulated cluster can only
	// estimate. It is the sum of the three phases below.
	WallTime time.Duration
	// SplitTime covers the parser side: planning and cutting the tree,
	// cache lookups, and setting up the fragment actors.
	SplitTime time.Duration
	// EvalTime is the parallel attribute evaluation proper: from the
	// moment the fragments are handed to the worker pool until the job
	// reaches quiescence. This is the phase the paper's running-time
	// figures measure.
	EvalTime time.Duration
	// SpliceTime covers assembling the final program text (librarian
	// splice / rope flatten) after evaluation.
	SpliceTime time.Duration
	// Stats aggregates evaluator statistics across fragments.
	Stats eval.Stats
	// PerFrag holds per-fragment evaluator statistics.
	PerFrag []eval.Stats
	// Frags is the number of fragments the tree was split into.
	Frags int
	// Workers is the requested evaluation width (the fragment default).
	Workers int
	// Decomp describes the process tree: a planned decomposition of the
	// job's tree (tree.SplitInPlace for a local job, tree.SplitEncode
	// for a fleet job), whose fragment roots are nodes of the caller's
	// uncut tree. Read the fragments through its methods (Sizes,
	// Balance, Children, Describe, Digests), not by walking
	// Frags[i].Root.
	Decomp *tree.Decomposition
	// Messages counts cross-fragment attribute messages.
	Messages int
	// StoredStrings and StoredBytes report librarian activity. A
	// whole-tree cache hit runs no fragment; it reports these three
	// counters as the cold run that made the recording counted them.
	StoredStrings int
	StoredBytes   int
	// PlanStats describes the decomposition planning of this job.
	PlanStats PlanStats
	// PartialHits counts fragments this job completed by incremental
	// per-fragment cache replay (edited-tree reuse). Whole-tree cache
	// hits run no fragment and report zero here — they show up in
	// PoolStats.CacheHits instead.
	PartialHits int
	// Demoted counts incremental-replay candidates this job demoted to
	// live evaluation (inbound mismatch or speculation deadlock).
	Demoted int

	// Fleet-mode outcome (jobs evaluated through a RemoteEvaluator;
	// all zero for local pool evaluation): RemoteFrags counts fragments
	// this job evaluated on remote workers, FleetRetries RPC attempts
	// beyond the first, FleetRequeues fragments transparently re-placed
	// on another worker after theirs was lost mid-evaluation. Degraded
	// reports that at least one fragment fell back to in-process
	// evaluation because no remote worker was healthy.
	RemoteFrags   int
	FleetRetries  int
	FleetRequeues int
	Degraded      bool
}

// PlanStats reports how one job's decomposition was planned: how long
// planning (cut selection) took, the effective width, and the resulting
// size balance (tree.Decomposition Balance).
type PlanStats struct {
	PlanTime time.Duration `json:"plan_time"`
	Width    int           `json:"width"`
	Balance  float64       `json:"balance"`
}

// GranularityError reports a caller-supplied Options.Granularity below
// the splitter's floor (tree.MinGranularity, the §2.5 bound under
// which per-fragment runtime overhead dominates evaluation). The pool
// rejects it up front instead of silently clamping.
type GranularityError struct{ Granularity int }

func (e *GranularityError) Error() string {
	return fmt.Sprintf("parallel: granularity %d below minimum %d", e.Granularity, tree.MinGranularity)
}

// message is one cross-fragment attribute value: attr of node (a
// fragment root or a remote leaf of the receiving fragment).
type message struct {
	node *tree.Node
	attr int
	val  ag.Value
}

// outBatch buffers messages bound for one destination fragment. A
// fragment's destinations are fixed (its parent and its children), so
// the batches and their backing arrays are reused across steps and the
// steady state allocates nothing.
type outBatch struct {
	target *frag
	msgs   []message
}

// frag is one fragment actor. The scheduler guarantees at most one
// worker executes step on a fragment at a time; inbox, queued and done
// are the only cross-goroutine state and are guarded by mu.
type frag struct {
	r      *rt // the owning job's runtime (fragments of many jobs share the deques)
	id     int
	parent int
	root   *tree.Node
	leaves []*tree.Node // remote leaves, tree order

	mu     sync.Mutex
	inbox  []message
	spare  []message // drained buffer, swapped back in next drain
	queued bool
	done   bool

	// curWorker is the worker currently driving this fragment; only
	// that worker reads it (from hook callbacks), and only the driving
	// worker writes it at step entry.
	curWorker int

	out   []outBatch
	prio  [1]message             // scratch for immediate (priority) sends
	ev    eval.FragmentEvaluator // created on first step, in a worker
	store func(text string) (int32, error)
	stats eval.Stats

	// Recording state, fixed at job setup and then touched only by the
	// driving worker: on a fully cold job, rec accumulates the
	// fragment's outputs (and recIn its raw inbound messages) for
	// publication when the whole job completes.
	rec   *fragRecord
	recIn []message

	// Incremental-replay state (whole-tree miss with a per-fragment
	// recording available): cand is the candidate recording this
	// fragment tentatively replays. A candidate starts in WAIT mode:
	// its recorded phase-0 outputs (the zero-input prefix — exact by
	// rule purity, since they depend only on the subtree the content
	// address covers) are replayed immediately so the paper's
	// bottom-up first phase, the declaration signatures, keeps flowing
	// and a live root is never starved by tentative children; arriving
	// messages are buffered in held and validated against the
	// recording (seen/matched), with no evaluator built at all. A full
	// match commits the replay. A value mismatch demotes the fragment
	// to live evaluation (cand = nil). A candidate starved at job
	// quiescence (its remaining inbound can only follow from its own
	// withheld outputs) mode-switches to RUN-AHEAD (runAhead = true):
	// it builds its evaluator and evaluates forward like a live
	// fragment, but keeps validating — if the full inbound set still
	// matches, it commits and skips its remaining evaluation. All of
	// this state is touched only by the driving worker (or by the job
	// goroutine at quiescence, when no worker holds the fragment).
	cand     *fragRecord
	held     []message
	seen     map[inKey]bool
	matched  int
	emitted  map[outKey]bool
	runAhead bool
	// Wave-replay cursors (wait mode): covered is the length of the
	// prefix of cand.inOrder whose keys have matched, nextMsg the next
	// recorded outbound message to consider for replay (messages are
	// recorded in send order, so their waves are nondecreasing).
	covered, nextMsg int
}

// outKey identifies one outbound attribute instance of a fragment: the
// destination fragment, whether the message addresses the
// destination's root (inherited, parent→child) or the remote leaf
// standing for the sender in its parent (synthesized, child→parent),
// and the attribute. Each instance is sent at most once per run, so
// the key is unique among a fragment's outbound messages.
type outKey struct {
	target int
	toRoot bool
	attr   int
}

// rt is the state of one job in flight on a Pool: the job's private
// fragment set, librarian (handle namespace), message counters and
// quiescence tracking. The sched it pushes to is the pool's shared
// scheduler.
type rt struct {
	job  cluster.Job
	opts Options

	frags  []*frag
	leafOf map[int]*tree.Node // child fragment id -> remote leaf in parent
	// cache is the pool's fragment cache (nil when this job bypasses
	// it); the incremental path files its per-fragment counters there.
	// partial counts this job's committed per-fragment replays,
	// demotedCnt its candidates demoted to live evaluation.
	cache      *fragCache
	partial    atomic.Int64
	demotedCnt atomic.Int64
	// fpCache memoizes value fingerprints by identity within this job:
	// shared structured values (the global symbol table above all)
	// reach many fragments as one pointer, and encoding them once per
	// job instead of once per fragment keeps validation cheap. Guarded
	// by fpMu (fingerprints happen per cross-fragment message, nowhere
	// near the per-instance hot path).
	fpMu    sync.Mutex
	fpCache map[fpKey]valFP
	lib     *rope.Librarian
	useLib  bool

	sched   *sched
	pending atomic.Int64 // queued or running fragments; 0 = quiescent
	doneCnt atomic.Int64
	// cancelled flips once when the job's context ends; workers then
	// discard the job's fragments instead of evaluating them.
	cancelled atomic.Bool
	// failMu/failErr hold the first evaluation failure (a recovered
	// panic or handle-range exhaustion); fail() also flips cancelled so
	// the job's remaining fragments are reclaimed, not evaluated.
	failMu  sync.Mutex
	failErr error
	// quiet closes at job quiescence: no fragment queued or running
	// (all done, cancelled, or deadlock).
	quiet    chan struct{}
	messages atomic.Int64

	rootAttrs []ag.Value // written only by the worker driving fragment 0
}

// Run executes one parallel compilation across real CPU cores and
// returns its result: a one-shot Pool serving a single job. The job's
// tree is evaluated in place and restored before Run returns, so the
// job can be reused (and compared against cluster.Run on the same job).
// Services that compile repeatedly should hold a Pool and call Compile
// instead.
func Run(job cluster.Job, opts Options) (*Result, error) {
	if opts.Mode == 0 {
		opts.Mode = cluster.Combined
	}
	// One-shot runs keep the strict contract: the caller supplies the
	// analysis (a Pool would compute and cache one per grammar).
	if opts.Mode == cluster.Combined && job.A == nil {
		return nil, fmt.Errorf("parallel: combined mode requires an OAG analysis")
	}
	// A one-shot pool serves exactly one job, so its fragment cache
	// could never hit: disable it and skip the hashing/recording work
	// (Run stays a pure measurement of evaluation for the benchmarks
	// and parity tests).
	p := NewPool(PoolOptions{Workers: opts.Workers, MaxInFlight: 1, CacheBytes: -1})
	defer p.Close()
	return p.Compile(context.Background(), job, opts)
}

// send routes one outbound attribute value from fragment f. Priority
// attributes ship immediately (paper §4.3: the receiver should start
// on the symbol table as early as possible); everything else is
// buffered per destination and delivered in one batch when f's
// evaluation pauses.
func (r *rt) send(f *frag, target *frag, m message, priority bool) {
	if f.rec != nil {
		// Record the value exactly as shipped (post-outbound
		// conversion); node pointers are job-private, so remember the
		// destination symbolically instead (child root vs own leaf in
		// the parent).
		f.rec.msgs = append(f.rec.msgs, cachedMsg{
			target: target.id, toRoot: m.node == target.root, attr: m.attr,
			wave: len(f.recIn), val: m.val,
		})
	}
	if f.emitted != nil || f.cand != nil {
		// Incremental bookkeeping: emitted records which outbound
		// instances this fragment has already shipped, so a commit
		// replays only the remainder — and a candidate whose phase-0
		// outputs were replayed from the recording, then mode-switched
		// to live evaluation, does not ship those instances a second
		// time (the live value is content-equal by purity; a duplicate
		// Supply at the receiver is not).
		k := outKey{target: target.id, toRoot: m.node == target.root, attr: m.attr}
		if f.emitted == nil {
			f.emitted = make(map[outKey]bool)
		} else if f.emitted[k] {
			return
		}
		f.emitted[k] = true
	}
	if priority {
		// postBatch copies the batch into the inbox, so the scratch
		// array is free again when it returns (f is single-threaded).
		f.prio[0] = m
		r.postBatch(f, target, f.prio[:])
		return
	}
	r.sendRaw(f, target, m)
}

// sendRaw buffers one outbound message for batch delivery, with no
// recording or replay bookkeeping (replayMsgs posts through here —
// its messages are already deduplicated and must not be re-recorded).
func (r *rt) sendRaw(f *frag, target *frag, m message) {
	for i := range f.out {
		if f.out[i].target == target {
			f.out[i].msgs = append(f.out[i].msgs, m)
			return
		}
	}
	f.out = append(f.out, outBatch{target: target, msgs: []message{m}})
}

// flush delivers every buffered batch, one mailbox lock per
// destination. The batch buffers are retained for reuse.
func (r *rt) flush(f *frag) {
	for i := range f.out {
		b := &f.out[i]
		if len(b.msgs) == 0 {
			continue
		}
		r.postBatch(f, b.target, b.msgs)
		b.msgs = b.msgs[:0]
	}
}

// postBatch appends a batch of messages to target's mailbox under a
// single lock acquisition, scheduling the fragment (onto the posting
// worker's own deque) if it is idle. Messages to completed fragments
// are dropped (the value was provably not needed: a fragment only
// completes once every local instance is evaluated).
func (r *rt) postBatch(from *frag, target *frag, msgs []message) {
	r.messages.Add(int64(len(msgs)))
	target.mu.Lock()
	if target.done {
		target.mu.Unlock()
		return
	}
	target.inbox = append(target.inbox, msgs...)
	enqueue := !target.queued
	if enqueue {
		target.queued = true
	}
	target.mu.Unlock()
	if enqueue {
		// The poster's own step still holds a pending reference, so the
		// job cannot look quiescent before this push lands.
		r.pending.Add(1)
		r.sched.push(from.curWorker, target)
	}
}

// step drives one fragment on worker w: build its evaluator on first
// entry, drain the mailbox (whole inbox under one lock), evaluate until
// blocked, deliver the outbound batches, repeat until the mailbox stays
// empty or the fragment completes. Fragments of cancelled jobs are
// discarded instead: marked done (so pending messages drop) without
// touching the evaluator.
func (r *rt) step(w int, f *frag) {
	r.stepGuarded(w, f)
	if r.pending.Add(-1) == 0 {
		// Nothing of this job queued or running, no messages in
		// flight: the job is quiescent (all fragments done, cancelled,
		// failed, or deadlock). The pool's workers move on to other jobs.
		close(r.quiet)
	}
}

// jobPanic carries an error out of fragment evaluation through
// panic/recover: semantic-rule hooks have no error returns, so deep
// failures (librarian handle-range exhaustion above all) unwind to the
// worker's recovery point, which files them as a clean job failure.
type jobPanic struct{ err error }

// stepGuarded is step's body with panic containment: a panicking
// semantic rule (or any other evaluation panic) fails the one job that
// raised it — the fragment is marked done so pending messages drop,
// the job's remaining fragments are reclaimed via the cancelled flag —
// while the worker goroutine survives to keep serving every other job
// on the pool.
func (r *rt) stepGuarded(w int, f *frag) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		if jp, ok := p.(jobPanic); ok {
			r.fail(jp.err)
		} else {
			r.fail(fmt.Errorf("parallel: fragment %d: evaluation panicked: %v\n%s", f.id, p, debug.Stack()))
		}
		f.mu.Lock()
		f.done = true
		f.mu.Unlock()
	}()
	if r.cancelled.Load() {
		f.mu.Lock()
		f.done = true
		f.mu.Unlock()
		return
	}
	r.run(w, f)
}

// fail files the job's first failure and cancels the rest of the job.
func (r *rt) fail(err error) {
	r.failMu.Lock()
	if r.failErr == nil {
		r.failErr = err
	}
	r.failMu.Unlock()
	r.cancelled.Store(true)
}

// failure returns the job's failure, if any.
func (r *rt) failure() error {
	r.failMu.Lock()
	defer r.failMu.Unlock()
	return r.failErr
}

// run is the evaluation body of step. An incremental-replay candidate
// starts in wait mode (see the frag field comments), where arriving
// values are validated against the candidate recording and, on a full
// match, the whole fragment commits without an evaluator ever
// existing.
func (r *rt) run(w int, f *frag) {
	f.curWorker = w
	if f.cand != nil && !f.runAhead {
		if r.stepWait(f) {
			return // still waiting tentatively, or committed
		}
		// Fell through: an inbound value contradicted the recording.
		// Evaluate live below; held carries everything received.
	}
	if f.ev == nil {
		r.initFrag(f)
		// The first Run happens before anything is supplied, for every
		// fragment. For recording jobs this biases the recording toward
		// tight message waves — the zero-input outputs (the paper's
		// bottom-up declaration phase) get wave 0 instead of whatever
		// happened to be in the mailbox at first step, so replays of
		// the recording can ship them unconditionally. Re-sends of
		// instances a mode-switched candidate already replayed are
		// deduplicated by send().
		f.ev.Run()
		r.flush(f)
		for _, m := range f.held {
			f.ev.Supply(m.node, m.attr, m.val)
		}
		f.held = nil
	}
	for {
		f.mu.Lock()
		msgs := f.inbox
		f.inbox = f.spare[:0]
		f.mu.Unlock()
		if f.rec != nil {
			f.recIn = append(f.recIn, msgs...)
		}
		if f.cand != nil {
			// Run-ahead validation: keep matching while evaluating
			// live; a full match still commits and skips the rest of
			// the evaluation.
			for _, m := range msgs {
				if !r.matchTentative(f, m) {
					r.demote(f)
					break
				}
			}
			if f.cand != nil && f.matched == len(f.cand.inbound) {
				f.spare = msgs
				r.commitPartial(f)
				return
			}
		}
		for _, m := range msgs {
			f.ev.Supply(m.node, m.attr, m.val)
		}
		f.spare = msgs // recycle the drained buffer next round
		f.ev.Run()
		r.flush(f)
		if f.ev.Done() {
			f.stats = f.ev.Stats()
			f.mu.Lock()
			f.done = true // queued stays true: completed fragments never reschedule
			f.mu.Unlock()
			r.doneCnt.Add(1)
			return
		}
		f.mu.Lock()
		if len(f.inbox) == 0 || r.cancelled.Load() {
			f.queued = false
			f.mu.Unlock()
			return
		}
		f.mu.Unlock()
	}
}

// stepWait drives a wait-mode candidate: drain the mailbox, holding
// and validating each arriving value against the candidate recording's
// canonical inbound set, and replay every recorded outbound message
// whose wave prerequisites have matched — no evaluator is built, and
// nothing unproven is shipped. The replay commits once every recorded
// inbound instance has arrived with a matching value. It returns false
// when a value contradicts the recording — the fragment is demoted
// (cand cleared, counters filed) and the caller evaluates it live with
// the held messages, which were kept regardless of match so demotion
// loses nothing.
func (r *rt) stepWait(f *frag) bool {
	if f.seen == nil {
		f.seen = make(map[inKey]bool, len(f.cand.inbound))
	}
	for {
		r.advanceReplay(f)
		if f.matched == len(f.cand.inbound) {
			r.commitPartial(f)
			return true
		}
		r.flush(f)
		f.mu.Lock()
		msgs := f.inbox
		f.inbox = f.spare[:0]
		f.mu.Unlock()
		f.held = append(f.held, msgs...)
		f.spare = msgs[:0]
		for _, m := range msgs {
			if !r.matchTentative(f, m) {
				r.demote(f)
				return false
			}
		}
		if len(msgs) == 0 {
			f.mu.Lock()
			if len(f.inbox) == 0 || r.cancelled.Load() {
				f.queued = false
				f.mu.Unlock()
				return true
			}
			f.mu.Unlock()
		}
	}
}

// advanceReplay ships every recorded outbound message of wait-mode
// candidate f whose prerequisites have been proven. A message of wave
// w was recorded after receiving exactly the instances inOrder[:w], so
// once those have all arrived with matching values, the message's
// value is (by purity) a function of validated inputs and the
// unchanged subtree — exact, not speculative. Messages are recorded in
// send order with nondecreasing waves, so the cursor advances over the
// proven head.
func (r *rt) advanceReplay(f *frag) {
	c := f.cand
	for f.covered < len(c.inOrder) && f.seen[c.inOrder[f.covered]] {
		f.covered++
	}
	for f.nextMsg < len(c.msgs) && c.msgs[f.nextMsg].wave <= f.covered {
		r.replayMsgs(f, c.msgs[f.nextMsg:f.nextMsg+1])
		f.nextMsg++
	}
}

// fpKey memoizes a fingerprint by value identity plus codec (the same
// value could in principle be declared with different codecs on
// different attributes, which would encode differently).
type fpKey struct {
	v ag.Value
	c ag.Codec
}

// fingerprint is fingerprintValue with job-level memoization for
// pointer-shaped values (safe as map keys, and the ones — symbol
// tables — whose encoding is worth sharing across fragments). Code
// values are excluded: their descriptors are fragment-local and never
// recur.
func (r *rt) fingerprint(sym *ag.Symbol, attr int, v ag.Value) (valFP, error) {
	if v == nil || reflect.TypeOf(v).Kind() != reflect.Pointer {
		return fingerprintValue(sym, attr, v, r.lib.Lookup)
	}
	if _, isCode := v.(rope.Code); isCode {
		return fingerprintValue(sym, attr, v, r.lib.Lookup)
	}
	k := fpKey{v: v, c: sym.Attrs[attr].Codec}
	r.fpMu.Lock()
	fp, ok := r.fpCache[k]
	r.fpMu.Unlock()
	if ok {
		return fp, nil
	}
	fp, err := fingerprintValue(sym, attr, v, r.lib.Lookup)
	if err != nil {
		return fp, err
	}
	r.fpMu.Lock()
	if r.fpCache == nil {
		r.fpCache = make(map[fpKey]valFP)
	}
	r.fpCache[k] = fp
	r.fpMu.Unlock()
	return fp, nil
}

// matchTentative validates one inbound message against the candidate
// recording: the instance must exist in the recorded inbound set and
// the value must fingerprint identically (codec bytes, or resolved
// text for code values — see fingerprintValue).
func (r *rt) matchTentative(f *frag, m message) bool {
	key := inKey{leaf: rootSlot, attr: m.attr}
	sym := f.root.Sym
	if m.node != f.root {
		key.leaf = m.node.RemoteID
		sym = m.node.Sym
	}
	want, ok := f.cand.inbound[key]
	if !ok {
		return false
	}
	got, err := r.fingerprint(sym, m.attr, m.val)
	if err != nil || got != want {
		return false
	}
	if !f.seen[key] {
		f.seen[key] = true
		f.matched++
	}
	return true
}

// demote turns an incremental-replay candidate into an ordinary live
// fragment (the recording stays in the cache for other jobs).
func (r *rt) demote(f *frag) {
	f.cand = nil
	r.demotedCnt.Add(1)
	if r.cache != nil {
		r.cache.demoted.Add(1)
	}
}

// commitPartial completes fragment f from its candidate recording:
// every recorded inbound instance has arrived with a matching value,
// so by rule purity f's outputs equal the recording's. Recorded
// outbound messages are re-posted through the normal mailboxes (see
// replayMsgs). The root fragment restores the job's recorded
// (post-splice, librarian-free) root attributes.
func (r *rt) commitPartial(f *frag) {
	cand := f.cand
	// The commit replays recorded messages; clear cand first so send()
	// stops run-ahead bookkeeping (replayMsgs does its own emitted
	// dedup against everything already shipped).
	f.cand = nil
	r.replayMsgs(f, cand.msgs)
	r.flush(f)
	if f.id == 0 {
		copy(r.rootAttrs, cand.rootAttrs)
	}
	f.held = nil
	if f.ev != nil {
		f.stats = f.ev.Stats() // run-ahead evaluation did real work
	}
	r.partial.Add(1)
	if r.cache != nil {
		r.cache.partialHits.Add(1)
	}
	f.mu.Lock()
	f.done = true
	f.mu.Unlock()
	r.doneCnt.Add(1)
}

// replayMsgs posts recorded outbound messages of fragment f through
// the normal mailbox machinery, skipping instances f already shipped
// (recorded in f.emitted by send() and by earlier replays).
// Code values that crossed the boundary as descriptors were recorded
// as their resolved text (code); that text is deposited under THIS
// job's private handle range for f.id and shipped as a fresh
// descriptor, as the live fragment would have. The store continues
// f's single handle allocator, so replayed and live deposits of one
// fragment never collide.
func (r *rt) replayMsgs(f *frag, msgs []cachedMsg) {
	for i := range msgs {
		m := &msgs[i]
		k := outKey{target: m.target, toRoot: m.toRoot, attr: m.attr}
		if f.emitted[k] {
			continue
		}
		if f.emitted == nil {
			f.emitted = make(map[outKey]bool)
		}
		f.emitted[k] = true
		val := m.val
		if m.code {
			if f.store == nil {
				f.store = r.lib.Range(rope.HandleBase(f.id))
			}
			// Deposit the recorded leaf as one run and reference it
			// directly — the general ToDescriptor walk would only copy
			// the already-flat text through a builder first.
			text := rope.FlattenCode(val.(rope.Code), nil)
			h, err := f.store(text)
			if err != nil {
				panic(jobPanic{fmt.Errorf("parallel: fragment %d: re-shipping cached code: %w", f.id, err)})
			}
			val = rope.HandleDesc(h, len(text))
		}
		target := r.frags[m.target]
		node := r.leafOf[f.id]
		if m.toRoot {
			node = target.root
		}
		r.sendRaw(f, target, message{node: node, attr: m.attr, val: val})
	}
}

// pickWaiting returns the topmost (lowest-id) fragment still in
// wait-mode tentative replay, or nil. Called only at job quiescence,
// when no worker holds any of the job's fragments.
func (r *rt) pickWaiting() *frag {
	for _, f := range r.frags {
		f.mu.Lock()
		done := f.done
		f.mu.Unlock()
		if !done && f.cand != nil && !f.runAhead {
			return f
		}
	}
	return nil
}

// runAheadAtQuiescence switches starved wait-mode candidate f to
// run-ahead (build the evaluator, evaluate forward, keep validating)
// and requeues it, re-arming the job's quiescence latch. Topmost-first
// (pickWaiting) matters: a waiting parent is what starves its subtree
// — it withholds the inherited attributes everything below needs — so
// releasing the topmost waiter gives every candidate below it the
// chance to still match and commit; the released fragment itself also
// still commits if its full inbound set eventually matches.
func (r *rt) runAheadAtQuiescence(f *frag) {
	f.runAhead = true
	r.quiet = make(chan struct{})
	r.pending.Store(1)
	f.mu.Lock()
	f.queued = true
	f.mu.Unlock()
	r.sched.push(f.id%len(r.sched.deques), f)
}

// finalizeRecord completes fragment f's recording for publication:
// replace each handle-bearing outbound code value with one Leaf of its
// resolved text (the recording job's librarian is still alive here),
// so the recording holds no handle, and canonicalize the raw inbound
// messages into the order-independent fingerprint set. An inbound
// value with no canonical form leaves rec.inbound nil — the entry
// still serves whole-tree hits, but the record is never offered as an
// incremental candidate (nothing could validate it).
func (r *rt) finalizeRecord(f *frag) {
	rec := f.rec
	for i := range rec.msgs {
		m := &rec.msgs[i]
		code, ok := m.val.(rope.Code)
		if !ok {
			continue
		}
		if !holdsHandle(code) {
			continue
		}
		m.val = rope.Leaf(rope.FlattenCode(code, r.lib.Lookup))
		m.code = true
	}
	obs := make([]inObs, 0, len(f.recIn))
	for _, m := range f.recIn {
		key := inKey{leaf: rootSlot, attr: m.attr}
		sym := f.root.Sym
		if m.node != f.root {
			key.leaf = m.node.RemoteID
			sym = m.node.Sym
		}
		fp, err := r.fingerprint(sym, m.attr, m.val)
		if err != nil {
			return
		}
		obs = append(obs, inObs{key: key, fp: fp})
	}
	f.recIn = nil
	in, err := canonInbound(obs)
	if err != nil {
		return
	}
	// inOrder preserves the arrival order the message waves were
	// recorded against; the canonical map is what matching compares.
	rec.inOrder = make([]inKey, len(obs))
	for i := range obs {
		rec.inOrder[i] = obs[i].key
	}
	rec.inbound = in
}

// initFrag builds the fragment's evaluator (the expensive dependency
// analysis runs inside the pool, in parallel across fragments) under
// the shared §4.3 fragment policy of cluster.NewFragmentEvaluator.
func (r *rt) initFrag(f *frag) {
	// Per-fragment handle range, as in the simulated cluster: stores
	// from a fragment are sequential (one worker drives it at a time),
	// and ranges of distinct fragments never collide. The librarian
	// itself is private to the job, so fragments of concurrent jobs
	// cannot collide either. Only librarian runs need a range
	// (HandleBase bounds-checks the id; the pool has validated the
	// decomposition width when the librarian is in play).
	// A mode-switched candidate may already hold the range (its phase-0
	// replay deposited through it); a fragment owns ONE handle allocator
	// for its whole life, so replayed and live deposits stay
	// collision-free.
	if r.useLib && f.store == nil {
		f.store = r.lib.Range(rope.HandleBase(f.id))
	}
	ev, err := cluster.NewFragmentEvaluator(r.job, cluster.FragmentSpec{
		ID:        f.id,
		Root:      f.root,
		Leaves:    f.leaves,
		UIDBase:   cluster.UIDBaseFor(f.id),
		Mode:      r.opts.Mode,
		UIDPreset: r.opts.UIDPreset,
		Down: func(leaf *tree.Node, attr int, v ag.Value, priority bool) {
			child := r.frags[leaf.RemoteID]
			r.send(f, child, message{node: child.root, attr: attr, val: r.outbound(f, leaf.Sym, attr, v)}, priority)
		},
		Up: func(attr int, v ag.Value, priority bool) {
			r.send(f, r.frags[f.parent],
				message{node: r.leafOf[f.id], attr: attr, val: r.outbound(f, f.root.Sym, attr, v)}, priority)
		},
		// Only the worker driving fragment 0 writes the results.
		Result: func(attr int, v ag.Value) { r.rootAttrs[attr] = v },
	})
	if err != nil {
		panic(jobPanic{fmt.Errorf("parallel: fragment %d: %w", f.id, err)})
	}
	f.ev = ev
}

// outbound prepares an attribute value for another fragment. Code
// attributes are converted to librarian descriptors when the librarian
// is enabled; everything else is shared directly (attribute values are
// immutable). Handle-range exhaustion unwinds as a jobPanic: the
// worker's recovery point fails this one job and the pool keeps
// serving the rest.
func (r *rt) outbound(f *frag, sym *ag.Symbol, attr int, v ag.Value) ag.Value {
	if !r.useLib || v == nil {
		return v
	}
	if _, ok := sym.Attrs[attr].Codec.(rope.ShipCodec); !ok {
		return v
	}
	code, ok := v.(rope.Code)
	if !ok {
		return v
	}
	d, err := rope.ToDescriptor(code, f.store)
	if err != nil {
		panic(jobPanic{fmt.Errorf("parallel: fragment %d: %w", f.id, err)})
	}
	return d
}
