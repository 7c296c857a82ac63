// Package parallel is the real shared-memory parallel runtime of the
// reproduction: the paper's architecture (§2.1) mapped onto a modern
// multicore machine instead of the simulated 1987 network.
//
// The correspondence to the paper, piece by piece:
//
//   - The sequential parser that splits the parse tree is the calling
//     goroutine: it plans the cuts over the caller's tree with the same
//     granularity policy as the simulated cluster (internal/tree), and
//     each fragment evaluator works on its own subtree of it, stopping
//     at the cut nodes below, and never writes the tree.
//   - The attribute evaluator machines become goroutines. Each tree
//     fragment is an actor goroutine owning one combined evaluator
//     (internal/eval) with unique-identifier presets (§4.3), the
//     paper's configuration: like the paper's evaluator process, it
//     evaluates while it has unprocessed input and parks on its
//     mailbox when it has none, and the job ends once every fragment
//     is done or parked (Runtime). The Go runtime schedules the
//     actors; the pool only bounds how many evaluate at once, with N
//     evaluation slots shared by every job (PoolOptions.Workers).
//     Fleet jobs run on the same job runtime: the fleet coordinator's
//     fragments are actors whose steps are RPCs to remote workers, over
//     mailboxes of wire-encoded values, and take no slot.
//   - V-System IPC becomes message passing over per-fragment mailboxes:
//     inherited attributes of remote subtrees and synthesized
//     attributes of fragment roots travel between fragments as plain Go
//     values (attribute values are immutable by the purity requirement
//     on semantic rules, so sharing is safe). Messages are batched: a
//     fragment buffers its outbound values per destination while it
//     evaluates and delivers each batch under a single mailbox lock,
//     and the receiver drains its whole inbox under one acquisition.
//     Priority attributes (§4.3) skip the batch and ship immediately.
//   - The string librarian (§4.3) has nothing to do in shared memory:
//     it exists so that code text is not copied across the network,
//     and a rope pointer already is an O(1) descriptor. Code
//     attributes cross fragment edges as ropes and the final program
//     is flattened once at the end. The simulated cluster and the
//     worker fleet, whose fragments talk over a wire, keep the
//     librarian.
//
// The paper frames the evaluator machines as a standing facility that
// compilations are farmed out to (§3), and that is how the runtime is
// organized: Pool is the long-lived facility — evaluation slots,
// shared read-only analyses, caches — multiplexing many concurrent
// jobs, each isolated in its own fragment set. Run wraps a whole Pool
// lifecycle around a single job.
//
// Because attribute evaluation is purely functional, the result is
// deterministic regardless of scheduling, and byte-identical to the
// simulated cluster runtime given the same decomposition.
package parallel

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"pag/internal/ag"
	"pag/internal/cluster"
	"pag/internal/eval"
	"pag/internal/tree"
)

// Options configures one parallel compilation.
type Options struct {
	// Workers is the evaluation width: for Run, the number of fragments
	// that may evaluate at once; <= 0 uses GOMAXPROCS. On an existing
	// Pool it only provides the Fragments default (the pool's own width
	// is fixed at NewPool time).
	Workers int
	// Fragments caps the decomposition; 0 splits into at most Workers
	// fragments (mirroring the cluster's one-fragment-per-machine
	// policy, so results are byte-identical to cluster.Run with
	// Machines == Workers). Larger values oversubscribe the pool.
	Fragments int
	// Mode must be 0 or cluster.Combined: the real runtimes run only
	// the combined evaluator, and Compile rejects any other mode.
	//
	// Deprecated: ignored; the next benchmark-harness PR deletes it.
	Mode cluster.Mode
	// Librarian has no effect: the pool shares code ropes by pointer,
	// and the fleet uses its librarian whenever the grammar has a code
	// attribute.
	//
	// Deprecated: ignored; the next benchmark-harness PR deletes it.
	Librarian bool
	// Granularity is the minimum linearized subtree size for a split;
	// 0 derives it from the tree size and fragment count.
	Granularity int
	// UIDPreset has no effect: every job runs with per-fragment
	// unique-identifier bases (§4.3).
	//
	// Deprecated: ignored; the next benchmark-harness PR deletes it.
	UIDPreset bool
	// NoCache bypasses the pool's content-addressed whole-job cache for
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
	// the flattened program as a handle-free rope.Leaf.
	RootAttrs []ag.Value
	// Program is the final code text, if the grammar has a code
	// attribute.
	Program string
	// WallTime is the real elapsed time of the whole run, as measured
	// on this machine — the number the simulated cluster can only
	// estimate. It is the sum of the three phases below.
	WallTime time.Duration
	// SplitTime covers the parser side: on a cache hit, the lookup; on
	// a miss, planning the cuts and setting up the fragment actors
	// (the lookup ran before admission).
	SplitTime time.Duration
	// EvalTime is the parallel attribute evaluation proper: from the
	// moment the fragment goroutines start until the job reaches
	// quiescence. This is the phase the paper's running-time
	// figures measure.
	EvalTime time.Duration
	// SpliceTime covers assembling the final program text (rope
	// flatten) after evaluation.
	SpliceTime time.Duration
	// Stats aggregates evaluator statistics across fragments.
	Stats eval.Stats
	// PerFrag holds per-fragment evaluator statistics (all zero on a
	// cache hit, which evaluates nothing).
	PerFrag []eval.Stats
	// Frags is the number of fragments the tree was split into. A cache
	// hit reports the recording run's count; the cache key holds every
	// input of the plan, so it is the count this job would have had.
	Frags int
	// Workers is the requested evaluation width (the fragment default).
	Workers int
	// Decomp describes the process tree: the planned decomposition of
	// the job's tree (tree.Plan), whose fragment roots are nodes of the
	// caller's uncut tree. Read the fragments through its methods
	// (Sizes, Balance, Children, Leaves, Describe), not by walking
	// Frags[i].Root. It is nil on a cache hit, which plans nothing.
	Decomp *tree.Decomposition
	// Messages counts cross-fragment attribute messages. A cache hit
	// sends none and reports the recording run's count.
	Messages int
	// StoredStrings and StoredBytes report librarian activity: always
	// zero on the local pool, which keeps no librarian, and the fleet
	// librarian's strings and bytes on a fleet job.
	StoredStrings int
	StoredBytes   int
	// PlanStats describes the decomposition planning of this job; zero
	// on a cache hit.
	PlanStats PlanStats
	// PartialHits and Demoted are always zero: the runtime replays
	// whole jobs only, never single fragments. They stay for the
	// benchmark harness, which still reads them, until it drops them.
	PartialHits int
	Demoted     int

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

// message is one cross-fragment attribute value: attr of the
// receiving fragment's root (leaf = eval.Root) or of its leaf leaf.
type message struct {
	leaf int
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

// frag is one local fragment: the Body that drives its combined
// evaluator on the job runtime.
type frag struct {
	Actor[message]
	j      *localJob
	parent int
	root   *tree.Node
	leaves []*tree.Node // cut nodes below root, in preorder
	kids   []int        // kids[k]: the fragment leaves[k] roots
	// leafIdx is the index of root among the parent fragment's leaves.
	leafIdx int

	out   []outBatch
	prio  [1]message             // scratch for immediate (priority) sends
	ev    eval.FragmentEvaluator // created on the first step
	stats eval.Stats
}

// localJob is one job in flight on a Pool: the job runtime over the
// job's private fragment set. The slots it evaluates in are the pool's,
// shared by every job.
type localJob struct {
	Runtime[message]
	job       cluster.Job
	frags     []frag
	rootAttrs []ag.Value // written only by fragment 0's goroutine
}

// newLocalJob sets up the runtime of a local job over decomp's
// fragments, each evaluated where it lies in the caller's tree.
func newLocalJob(ctx context.Context, slots chan struct{}, job cluster.Job, decomp *tree.Decomposition) *localJob {
	j := &localJob{
		Runtime:   Runtime[message]{slots: slots, ctx: ctx},
		job:       job,
		frags:     make([]frag, decomp.NumFragments()),
		rootAttrs: make([]ag.Value, len(job.G.Start.Attrs)),
	}
	for _, d := range decomp.Frags {
		f := &j.frags[d.ID]
		f.j, f.parent, f.root = j, d.Parent, d.Root
		f.leaves, f.kids = decomp.Leaves(d.ID), decomp.Children(d.ID)
		for k, c := range f.kids {
			j.frags[c].leafIdx = k
		}
		j.Add(&f.Actor, f)
	}
	return j
}

// Run executes one parallel compilation across real CPU cores and
// returns its result: a one-shot Pool serving a single job. Like
// Compile it only reads the job's tree, so the job can be reused (and
// compared against cluster.Run on the same job) and compiled
// elsewhere meanwhile. Services that compile repeatedly should hold a Pool and call Compile
// instead.
func Run(job cluster.Job, opts Options) (*Result, error) {
	// One-shot runs keep the strict contract: the caller supplies the
	// analysis (a Pool would compute and cache one per grammar).
	if job.A == nil {
		return nil, fmt.Errorf("parallel: combined mode requires an OAG analysis")
	}
	// A one-shot pool serves exactly one job, so its whole-job cache
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
func (f *frag) send(target *frag, m message, priority bool) {
	if priority {
		// Post copies the batch into the inbox, so the scratch array is
		// free again when it returns (f is single-threaded).
		f.prio[0] = m
		f.j.Post(&target.Actor, f.prio[:])
		return
	}
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
func (f *frag) flush() {
	for i := range f.out {
		b := &f.out[i]
		if len(b.msgs) == 0 {
			continue
		}
		f.j.Post(&b.target.Actor, b.msgs)
		b.msgs = b.msgs[:0]
	}
}

// Next is what a fragment does after a step.
type Next int

const (
	// Park waits for input: the fragment steps again once some arrives.
	Park Next = iota
	// More steps again at once, with whatever input has arrived.
	More
	// Done completes the fragment; later messages to it drop.
	Done
)

// Body is what one fragment evaluates: the pool's combined evaluator,
// or a fleet fragment's session on a remote worker.
type Body[M any] interface {
	// Step consumes in, the drained mailbox (nil on the first step,
	// which runs before any drain), and says what the fragment does
	// next. An error fails the job, unless the job already stopped: then
	// it is the stop's echo (a step blocked on the cancelled context).
	Step(in []M) (Next, error)
	// Blocked describes what an unfinished fragment waits for, for the
	// deadlock report; nil if the body cannot tell.
	Blocked() []string
}

// Actor is one fragment's mailbox and park state on a Runtime; embed it
// in the fragment and register it with Runtime.Add. inbox, parked and
// done are the only cross-goroutine state and are guarded by mu.
type Actor[M any] struct {
	id   int
	body Body[M]

	mu     sync.Mutex
	inbox  []M
	spare  []M  // drained buffer, swapped back in next drain
	parked bool // waiting on wake, not counted busy
	done   bool
	// wake carries the one signal of the Post that unparked the actor.
	wake chan struct{}
}

// Runtime runs one job's fragments, one goroutine each (the paper's
// evaluator processes, §2.1), and decides when the job is over: every
// fragment done, or the job quiescent with a fragment failed, cancelled
// or blocked (deadlock). Local pool jobs and fleet jobs both run on it;
// they differ only in the fragment body and the message type.
type Runtime[M any] struct {
	actors []*Actor[M]

	// slots are the pool's evaluation slots, taken around each step;
	// nil for a remote job, whose steps are RPCs, not local CPU.
	slots chan struct{}
	// busy counts the fragments not parked: stepping, waiting for a
	// slot, or about to park. Whoever brings it to zero closes quiet.
	busy    atomic.Int64
	doneCnt atomic.Int32
	// ctx is the job's context; cancelled flips once the job stops (see
	// stopped), and its fragments are then discarded instead of stepped.
	// cancel, if set, cancels ctx when the job fails, so a step blocked
	// on it returns at once.
	cancelled atomic.Bool
	ctx       context.Context
	cancel    context.CancelFunc
	// failErr holds the job's first failure; fail() also stops the job
	// so its remaining fragments are reclaimed.
	failErr atomic.Pointer[error]
	// quiet closes at job quiescence: every fragment done or parked. It
	// also releases the parked fragments' goroutines.
	quiet    chan struct{}
	messages atomic.Int64
}

// NewRuntime returns the runtime of a remote job: its steps take no
// evaluation slot, and its context, a child of ctx, is cancelled when
// the job fails or Wait returns.
func NewRuntime[M any](ctx context.Context) *Runtime[M] {
	r := &Runtime[M]{}
	r.ctx, r.cancel = context.WithCancel(ctx)
	return r
}

// Context is the job's context, for steps that block.
func (r *Runtime[M]) Context() context.Context { return r.ctx }

// Messages counts the messages posted so far, dropped ones included.
func (r *Runtime[M]) Messages() int { return int(r.messages.Load()) }

// Add registers a fragment: a is the Actor embedded in it, body what it
// evaluates. Fragments are numbered in the order they are added.
func (r *Runtime[M]) Add(a *Actor[M], body Body[M]) {
	a.id, a.body = len(r.actors), body
	a.wake = make(chan struct{}, 1)
	r.actors = append(r.actors, a)
}

// Start starts one goroutine per fragment. Every fragment counts busy
// until it first parks, so the job cannot look quiescent early.
// Cancellation needs no watcher: every step checks the job's context.
func (r *Runtime[M]) Start() {
	r.quiet = make(chan struct{})
	r.busy.Store(int64(len(r.actors)))
	for _, a := range r.actors {
		go r.actor(a)
	}
}

// Wait blocks until the job is quiescent and returns its outcome: nil
// once every fragment is done; else the first failure, which takes
// precedence over the cancellation it triggered; else the context's
// error if the job was cancelled; else a deadlock report naming every
// blocked fragment.
func (r *Runtime[M]) Wait() error {
	if r.cancel != nil {
		defer r.cancel()
	}
	<-r.quiet
	if int(r.doneCnt.Load()) == len(r.actors) {
		return nil
	}
	if err := r.failErr.Load(); err != nil {
		return *err
	}
	if r.cancelled.Load() {
		if err := r.ctx.Err(); err != nil {
			return err
		}
		return context.Canceled
	}
	var blocked []string
	for _, a := range r.actors {
		if !a.done {
			blocked = append(blocked, fmt.Sprintf("fragment %d %q", a.id, a.body.Blocked()))
		}
	}
	return fmt.Errorf("parallel: %s evaluation deadlocked with no input in flight; blocked: %v", cluster.Combined, blocked)
}

// Post appends a batch of messages to a's mailbox under a single lock
// acquisition, waking a if it is parked. Messages to done fragments are
// dropped (the value was provably not needed: a fragment only
// completes once every local instance is evaluated) but still counted.
func (r *Runtime[M]) Post(a *Actor[M], msgs []M) {
	r.messages.Add(int64(len(msgs)))
	a.mu.Lock()
	if a.done {
		a.mu.Unlock()
		return
	}
	a.inbox = append(a.inbox, msgs...)
	wake := a.parked
	a.parked = false
	a.mu.Unlock()
	if wake {
		// The poster is busy, so the job cannot look quiescent before
		// the target counts as busy again.
		r.busy.Add(1)
		a.wake <- struct{}{}
	}
}

// actor is fragment a's goroutine, the paper's evaluator process
// (§2.1): it steps while it has input (a local step in one of the
// pool's slots), parks until Post wakes it, and ends once the fragment
// is done (completed, discarded or failed) or the job goes quiet.
func (r *Runtime[M]) actor(a *Actor[M]) {
	for first := true; ; first = false {
		if r.slots != nil {
			r.slots <- struct{}{}
		}
		live := r.step(a, first)
		if r.slots != nil {
			<-r.slots
		}
		if !live {
			r.idle()
			return
		}
		if !r.park(a) {
			return
		}
	}
}

// park waits for input to a and reports false if the job went quiet
// instead. It re-checks the inbox under a.mu before it stops counting a
// busy, so a batch posted after step's last drain is never lost: from
// then on Post sees parked and wakes a.
func (r *Runtime[M]) park(a *Actor[M]) bool {
	a.mu.Lock()
	if len(a.inbox) > 0 {
		a.mu.Unlock()
		return true
	}
	a.parked = true
	a.mu.Unlock()
	r.idle()
	select {
	case <-a.wake:
		return true
	case <-r.quiet:
		return false
	}
}

// idle stops counting one fragment busy. At zero nothing of the job is
// stepping, waiting for a slot or in flight: the job is quiescent.
func (r *Runtime[M]) idle() {
	if r.busy.Add(-1) == 0 {
		close(r.quiet)
	}
}

// step drives a until its body parks on an empty mailbox, completes or
// fails, or the job stops, stepping the body with its drained mailbox
// (the whole inbox under one lock). It reports whether a lives on.
// Fragments of a stopped job are discarded instead: marked done (so
// later messages drop) without stepping the body. A panicking step (a
// semantic rule, say) fails the one job that raised it, while every
// other job on the pool evaluates on.
func (r *Runtime[M]) step(a *Actor[M], first bool) (live bool) {
	defer func() {
		if p := recover(); p != nil {
			r.fail(fmt.Errorf("parallel: fragment %d: evaluation panicked: %v\n%s", a.id, p, debug.Stack()))
			a.markDone()
			live = false
		}
	}()
	for !r.stopped() {
		var in []M
		if !first {
			a.mu.Lock()
			in = a.inbox
			a.inbox = a.spare[:0]
			a.mu.Unlock()
		}
		first = false
		next, err := a.body.Step(in)
		a.spare = in // recycle the drained buffer next round (nil at first)
		switch {
		case err != nil:
			if !r.stopped() {
				r.fail(err)
			}
			a.markDone()
			return false
		case next == Done:
			a.markDone()
			r.doneCnt.Add(1)
			return false
		case next == More:
			continue
		}
		a.mu.Lock()
		empty := len(a.inbox) == 0
		a.mu.Unlock()
		if empty {
			return true
		}
	}
	a.markDone()
	return false
}

// markDone marks a done, so messages to it drop.
func (a *Actor[M]) markDone() {
	a.mu.Lock()
	a.done = true
	a.mu.Unlock()
}

// fail files the job's first failure and stops the rest of the job.
func (r *Runtime[M]) fail(err error) {
	r.failErr.CompareAndSwap(nil, &err)
	r.cancelled.Store(true)
	if r.cancel != nil {
		r.cancel()
	}
}

// stopped reports whether the job's fragments should stop stepping: a
// failure stopped the job, or its context ended. The context is read
// here, at every step boundary, rather than by a watcher goroutine, so
// no step that starts after the job's deadline evaluates anything.
func (r *Runtime[M]) stopped() bool {
	if !r.cancelled.Load() && r.ctx.Err() != nil {
		r.cancelled.Store(true)
	}
	return r.cancelled.Load()
}

// Step is the local fragment body: build the evaluator on the first
// step, supply the drained input, evaluate until blocked and deliver
// the outbound batches.
func (f *frag) Step(in []message) (Next, error) {
	if f.ev == nil {
		if err := f.initFrag(); err != nil {
			return Done, err
		}
		// The first Run happens before anything is supplied, so the
		// outputs that need no input (the paper's bottom-up declaration
		// phase) ship before the fragment works through inputs that
		// have already arrived.
		f.ev.Run()
		f.flush()
	}
	for _, m := range in {
		f.ev.Supply(m.leaf, m.attr, m.val)
	}
	f.ev.Run()
	f.flush()
	if f.ev.Done() {
		f.stats = f.ev.Stats()
		return Done, nil
	}
	return Park, nil
}

// Blocked lists the fragment's blocked instances.
func (f *frag) Blocked() []string {
	if f.ev == nil {
		return nil
	}
	return f.ev.Blocked()
}

// initFrag builds the fragment's evaluator (the expensive dependency
// analysis runs inside the pool, in parallel across fragments) under
// the shared §4.3 fragment policy of cluster.NewFragmentEvaluator.
func (f *frag) initFrag() error {
	j := f.j
	ev, err := cluster.NewFragmentEvaluator(j.job, cluster.FragmentSpec{
		ID:        f.id,
		Root:      f.root,
		Leaves:    f.leaves,
		UIDBase:   cluster.UIDBaseFor(f.id),
		Mode:      cluster.Combined,
		UIDPreset: true,
		Down: func(leaf, attr int, v ag.Value, priority bool) {
			f.send(&j.frags[f.kids[leaf]], message{leaf: eval.Root, attr: attr, val: v}, priority)
		},
		Up: func(attr int, v ag.Value, priority bool) {
			f.send(&j.frags[f.parent], message{leaf: f.leafIdx, attr: attr, val: v}, priority)
		},
		// Only fragment 0's goroutine writes the results.
		Result: func(attr int, v ag.Value) { j.rootAttrs[attr] = v },
	})
	if err != nil {
		return fmt.Errorf("parallel: fragment %d: %w", f.id, err)
	}
	f.ev = ev
	return nil
}
