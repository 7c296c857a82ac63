// Package eval implements the three attribute evaluation strategies of
// the paper: the dynamic evaluator (dependency graph + topological
// worklist, Figure 1), the static ordered evaluator (precomputed visit
// sequences, Figures 2–3), and the combined static/dynamic evaluator
// that is the paper's contribution (Figure 4).
//
// Evaluators operate on one tree fragment. Attribute values crossing
// machine boundaries enter through Supply and leave through the Hooks
// callbacks; the cluster package wires these to the network.
package eval

import (
	"time"

	"pag/internal/ag"
	"pag/internal/tree"
)

// Simulated CPU costs of the evaluator machinery itself, calibrated for
// the ~1 MIPS machines of the paper's testbed. The asymmetry between
// graph costs (paid only by dynamic evaluation) and the static-op cost
// is exactly the paper's "sequential efficiency of static evaluators".
const (
	// CostGraphNode: allocate and initialize one dependency-graph node
	// during dynamic dependency analysis.
	CostGraphNode = 40 * time.Microsecond
	// CostGraphEdge: record one dependency edge.
	CostGraphEdge = 15 * time.Microsecond
	// CostSchedule: topological-sort bookkeeping per evaluated instance.
	CostSchedule = 12 * time.Microsecond
	// CostStaticOp: visit-procedure dispatch per plan operation.
	CostStaticOp = 8 * time.Microsecond
	// CostVisit: procedure-call overhead per child visit.
	CostVisit = 12 * time.Microsecond
	// CostSupply: handling one remotely supplied attribute value.
	CostSupply = 10 * time.Microsecond
)

// Hooks connects an evaluator to its environment.
type Hooks struct {
	// Charge accounts simulated CPU time; nil ignores costs.
	Charge func(d time.Duration)
	// OnRemoteInh fires when an inherited attribute of a remote leaf
	// has been computed locally and must be shipped to the evaluator
	// that owns the corresponding subtree.
	OnRemoteInh func(leaf *tree.Node, attr int, v ag.Value)
	// OnRootSyn fires when a synthesized attribute of the fragment root
	// has been computed and must be shipped to the parent evaluator (or
	// the parser, for the root fragment).
	OnRootSyn func(attr int, v ag.Value)
	// NoPriority disables the priority-attribute fast path (paper §4.3)
	// for ablation experiments: priority attributes queue like any
	// other ready attribute.
	NoPriority bool
	// YieldAfterPriority makes Run return right after evaluating an
	// instance whose value was shipped through OnRemoteInh as a
	// priority attribute, so a runtime can forward the value before
	// the rest of the ready work runs ("as early as possible", §4.3).
	// Yielding never changes the evaluation order: the next Run
	// continues exactly where the previous one stopped. It has no
	// effect under NoPriority.
	YieldAfterPriority bool
}

func (h *Hooks) charge(d time.Duration) {
	if h.Charge != nil {
		h.Charge(d)
	}
}

// Stats summarizes one evaluator run. DynamicEvals+StaticEvals is the
// number of attribute instances this evaluator computed; the paper's
// §4.1 observation is that the combined evaluator keeps
// DynamicEvals/(DynamicEvals+StaticEvals) very small.
type Stats struct {
	DynamicEvals int // instances evaluated via the dependency graph
	StaticEvals  int // instances evaluated by static visit procedures
	GraphNodes   int // dependency-graph nodes built
	GraphEdges   int // dependency-graph edges built
	Supplied     int // attribute values received from other evaluators
}

// DynamicFraction returns the share of attribute instances evaluated
// dynamically.
func (s Stats) DynamicFraction() float64 {
	total := s.DynamicEvals + s.StaticEvals
	if total == 0 {
		return 0
	}
	return float64(s.DynamicEvals) / float64(total)
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.DynamicEvals += other.DynamicEvals
	s.StaticEvals += other.StaticEvals
	s.GraphNodes += other.GraphNodes
	s.GraphEdges += other.GraphEdges
	s.Supplied += other.Supplied
}

// FragmentEvaluator is the common surface of the Dynamic and Combined
// evaluators as seen by a parallel runtime: run until blocked, feed
// remotely computed attribute values in, and report completion. Both
// the simulated cluster (internal/cluster) and the real shared-memory
// runtime (internal/parallel) drive fragments through this interface.
// Implementations are not safe for concurrent use; a runtime must
// ensure at most one goroutine drives a given fragment at a time.
type FragmentEvaluator interface {
	// Run evaluates everything currently ready and returns the number
	// of dynamically evaluated instances.
	Run() int
	// Yielded reports whether the last Run stopped at a yield point
	// (Hooks.YieldAfterPriority) with instances still ready to run.
	Yielded() bool
	// Supply injects an attribute value computed by another evaluator.
	Supply(n *tree.Node, attr int, v ag.Value)
	// Done reports whether every local attribute instance is evaluated.
	Done() bool
	// Blocked lists blocked instances for deadlock diagnostics.
	Blocked() []string
	// Stats returns evaluation statistics.
	Stats() Stats
}
