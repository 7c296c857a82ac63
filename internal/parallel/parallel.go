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
//     goroutines. Each tree fragment is an actor owning one combined
//     evaluator (internal/eval) with unique-identifier presets (§4.3),
//     the paper's configuration; a fragment is scheduled onto a
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
// organized: Pool is the long-lived facility — worker goroutines,
// deques, shared read-only analyses — multiplexing many concurrent
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
	// Workers is the number of worker goroutines; <= 0 uses GOMAXPROCS.
	// On an existing Pool it only provides the Fragments default (the
	// pool's own width is fixed at NewPool time).
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
	// SplitTime covers the parser side: planning and cutting the tree,
	// cache lookups, and setting up the fragment actors.
	SplitTime time.Duration
	// EvalTime is the parallel attribute evaluation proper: from the
	// moment the fragments are handed to the worker pool until the job
	// reaches quiescence. This is the phase the paper's running-time
	// figures measure.
	EvalTime time.Duration
	// SpliceTime covers assembling the final program text (rope
	// flatten) after evaluation.
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
	// StoredStrings and StoredBytes report librarian activity: always
	// zero on the local pool, which keeps no librarian, and the fleet
	// librarian's strings and bytes on a fleet job.
	StoredStrings int
	StoredBytes   int
	// PlanStats describes the decomposition planning of this job.
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
	stats eval.Stats
}

// rt is the state of one job in flight on a Pool: the job's private
// fragment set, message counters and quiescence tracking. The sched it
// pushes to is the pool's shared scheduler.
type rt struct {
	job cluster.Job

	frags  []*frag
	leafOf map[int]*tree.Node // child fragment id -> remote leaf in parent

	sched   *sched
	pending atomic.Int64 // queued or running fragments; 0 = quiescent
	doneCnt atomic.Int64
	// ctx is the job's context; cancelled flips once the job stops
	// (see stopped), and workers then discard the job's fragments
	// instead of evaluating them.
	ctx       context.Context
	cancelled atomic.Bool
	// failMu/failErr hold the first evaluation failure (a recovered
	// panic); fail() also flips cancelled so the job's remaining
	// fragments are reclaimed, not evaluated.
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
func (r *rt) send(f *frag, target *frag, m message, priority bool) {
	if priority {
		// postBatch copies the batch into the inbox, so the scratch
		// array is free again when it returns (f is single-threaded).
		f.prio[0] = m
		r.postBatch(f, target, f.prio[:])
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
// panic/recover: the evaluator is built inside a worker, so a
// construction failure unwinds to the worker's recovery point, which
// files it as a clean job failure.
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
	if r.stopped() {
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

// stopped reports whether the job's fragments should stop evaluating:
// a failure cancelled the job, or its context ended. The context is
// read here, at every step boundary, rather than by a watcher
// goroutine, so no step that starts after the job's deadline evaluates
// anything.
func (r *rt) stopped() bool {
	if r.cancelled.Load() {
		return true
	}
	if r.ctx.Err() != nil {
		r.cancelled.Store(true)
		return true
	}
	return false
}

// failure returns the job's failure, if any.
func (r *rt) failure() error {
	r.failMu.Lock()
	defer r.failMu.Unlock()
	return r.failErr
}

// run is the evaluation body of step.
func (r *rt) run(w int, f *frag) {
	f.curWorker = w
	if f.ev == nil {
		r.initFrag(f)
		// The first Run happens before anything is supplied, so the
		// outputs that need no input (the paper's bottom-up declaration
		// phase) ship before the fragment works through inputs that
		// have already arrived.
		f.ev.Run()
		r.flush(f)
	}
	for {
		f.mu.Lock()
		msgs := f.inbox
		f.inbox = f.spare[:0]
		f.mu.Unlock()
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
		if len(f.inbox) == 0 || r.stopped() {
			f.queued = false
			f.mu.Unlock()
			return
		}
		f.mu.Unlock()
	}
}

// initFrag builds the fragment's evaluator (the expensive dependency
// analysis runs inside the pool, in parallel across fragments) under
// the shared §4.3 fragment policy of cluster.NewFragmentEvaluator.
func (r *rt) initFrag(f *frag) {
	ev, err := cluster.NewFragmentEvaluator(r.job, cluster.FragmentSpec{
		ID:        f.id,
		Root:      f.root,
		Leaves:    f.leaves,
		UIDBase:   cluster.UIDBaseFor(f.id),
		Mode:      cluster.Combined,
		UIDPreset: true,
		Down: func(leaf *tree.Node, attr int, v ag.Value, priority bool) {
			child := r.frags[leaf.RemoteID]
			r.send(f, child, message{node: child.root, attr: attr, val: v}, priority)
		},
		Up: func(attr int, v ag.Value, priority bool) {
			r.send(f, r.frags[f.parent], message{node: r.leafOf[f.id], attr: attr, val: v}, priority)
		},
		// Only the worker driving fragment 0 writes the results.
		Result: func(attr int, v ag.Value) { r.rootAttrs[attr] = v },
	})
	if err != nil {
		panic(jobPanic{fmt.Errorf("parallel: fragment %d: %w", f.id, err)})
	}
	f.ev = ev
}
