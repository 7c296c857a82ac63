package parallel

import (
	"context"

	"pag/internal/cluster"
	"pag/internal/tree"
)

// RemoteEvaluator is a distributed evaluation backend a Pool can route
// admitted jobs to instead of running their fragment goroutines
// in-process: the coordinator of a pagd worker fleet (internal/fleet)
// implements it. The pool keeps owning admission — quotas,
// priorities, queue bounds and the outcome counters all apply
// unchanged — and the parser side: it defaults the
// options, supplies the analysis, plans and encodes the fragments
// (tree.SplitEncode, so the caller's tree is only read), and splices
// and files the result like a local job's. The evaluator owns only the
// evaluation: placement, health checking, retry/requeue and the
// degrade-to-local fallback. The fleet coordinator runs its fragments
// on the job runtime local jobs run on (NewRuntime).
//
// Evaluate evaluates the fragments of decomp, encoded[i] being fragment
// i's linearized subtree. The pool has set res's header (Frags,
// Workers, Decomp, PlanStats); Evaluate fills RootAttrs (the code
// attribute, if any, a handle-free Code), PerFrag, Stats, Messages,
// StoredStrings, StoredBytes and the fleet outcome fields.
//
// The result must be byte-identical to evaluating the same job locally
// at the same width (the simulated cluster remains the shared oracle),
// and implementations must be safe for concurrent calls. Failure
// policy: what a worker can recover from (a lost RPC, a dead worker)
// must not fail the job; the first permanent error fails it, with that
// error; ctx cancellation aborts it with ctx's error.
type RemoteEvaluator interface {
	Evaluate(ctx context.Context, job cluster.Job, opts Options, decomp *tree.Decomposition, encoded [][]byte, res *Result) error
	// FleetStats snapshots the evaluator's distribution counters for
	// Metrics / the Prometheus exposition.
	FleetStats() FleetStats
}

// FleetStats is a point-in-time snapshot of a RemoteEvaluator's
// distribution activity: worker health, fragment placement, and every
// failure-handling path taken (retries of a live placement, requeues to
// another worker, corrupt responses detected and discarded, and whole
// jobs degraded to local evaluation because no worker was healthy).
type FleetStats struct {
	// Workers is the configured worker count; ReadyWorkers how many are
	// currently routable (healthy and not draining or saturated).
	Workers      int `json:"workers"`
	ReadyWorkers int `json:"ready_workers"`

	// RemoteFrags counts fragments placed on remote workers,
	// LocalFrags fragments evaluated by the in-process fallback worker
	// (degraded placements, or a coordinator with no fleet configured).
	RemoteFrags int64 `json:"remote_fragments"`
	LocalFrags  int64 `json:"local_fragments"`

	// Retries counts RPC attempts beyond the first against an existing
	// placement; Requeues counts fragments re-placed on another worker
	// after their placement was lost (worker death, 404 session loss,
	// draining, retry exhaustion). A requeued fragment replays its
	// journal on the new worker, so the job never loses work.
	Retries  int64 `json:"retries"`
	Requeues int64 `json:"requeues"`

	// CorruptResponses counts worker RPC payloads that failed the wire
	// integrity check and were discarded (then retried), never spliced.
	CorruptResponses int64 `json:"corrupt_responses"`

	// WorkerTransitions counts health-state changes observed across the
	// worker set (ready/unready/unhealthy edges, from probes or from
	// RPC failures marking a worker down).
	WorkerTransitions int64 `json:"worker_transitions"`

	// DegradedJobs counts jobs that evaluated at least one fragment on
	// the local fallback although remote workers were configured.
	DegradedJobs int64 `json:"degraded_jobs"`
}
