package cluster

import (
	"fmt"
	"time"

	"pag/internal/ag"
	"pag/internal/eval"
	"pag/internal/tree"
)

// FragmentSpec describes one fragment evaluator for NewFragmentEvaluator:
// which fragment it evaluates, the evaluation switches, and the sinks
// its outbound values leave through. Every runtime — the simulated
// cluster, the shared-memory pool and a fleet worker — builds its
// fragments through this one description, so the §4.3 boundary policy
// is the same code everywhere; a runtime supplies only its transport.
type FragmentSpec struct {
	ID   int        // fragment id; 0 is the root fragment
	Root *tree.Node // the fragment's subtree
	// Leaves are the leaves of Root in preorder, which the evaluator
	// does not enter: a decoded fragment's remote leaves, or the cut
	// nodes of a planned decomposition. Down and the presets address
	// them by their index in this list.
	Leaves []*tree.Node
	// UIDBase is the unique-identifier base the parser hands this
	// fragment under UIDPreset (UIDBaseFor(ID) in every runtime).
	UIDBase int
	// Builder, if set, is the storage NewEndpoint decodes the subtree
	// into: a fleet worker's cleared builder, whose kept slabs the tree
	// reuses. Nil decodes into new storage. NewFragmentEvaluator
	// ignores it.
	Builder *tree.Builder

	Mode       Mode
	UIDPreset  bool // per-fragment unique-identifier bases (§4.3)
	NoPriority bool // priority attributes disabled (ablation, §4.3)
	// Yield makes Run return after each shipped priority value
	// (eval.Hooks.YieldAfterPriority).
	Yield bool
	// Charge accounts simulated CPU time; nil ignores costs.
	Charge func(time.Duration)
	// Ready, if set, runs once the evaluator is built, before the
	// unique-identifier presets are supplied.
	Ready func()

	// Down ships inherited attribute attr of Leaves[leaf] to the child
	// fragment that leaf stands for.
	Down func(leaf, attr int, v ag.Value, priority bool)
	// Up ships synthesized attribute attr of Root to the parent
	// fragment. It is never called for fragment 0.
	Up func(attr int, v ag.Value, priority bool)
	// Result receives the synthesized attributes of fragment 0's root:
	// the results of the whole compilation.
	Result func(attr int, v ag.Value)
}

// NewFragmentEvaluator builds the evaluator of one fragment of job
// under the §4.3 boundary policy. It picks the combined or dynamic
// evaluator by s.Mode (rejecting any other mode). Under s.UIDPreset it
// breaks the unique-identifier chain at every fragment boundary: a
// base value bound for a child is never shipped (the child starts from
// its own preset base), a count bound for the parent is never shipped
// (the parent presets it to zero), and those presets are supplied
// before the evaluator first runs. The priority flag handed to Down
// and Up is the attribute's declared priority unless s.NoPriority.
func NewFragmentEvaluator(job Job, s FragmentSpec) (eval.FragmentEvaluator, error) {
	// uidChain reports whether attr of sym is a link of a
	// unique-identifier chain the presets replace: a pair's base going
	// down, or its count going up.
	uidChain := func(sym *ag.Symbol, attr int, up bool) bool {
		if !s.UIDPreset {
			return false
		}
		for _, k := range job.UIDs {
			if k.Sym == sym && (up && k.Count == attr || !up && k.Base == attr) {
				return true
			}
		}
		return false
	}
	priority := func(sym *ag.Symbol, attr int) bool {
		return sym.Attrs[attr].Priority && !s.NoPriority
	}
	hooks := eval.Hooks{
		Charge:             s.Charge,
		NoPriority:         s.NoPriority,
		YieldAfterPriority: s.Yield,
		OnRemoteInh: func(leaf, attr int, v ag.Value) {
			sym := s.Leaves[leaf].Sym
			if uidChain(sym, attr, false) {
				return
			}
			s.Down(leaf, attr, v, priority(sym, attr))
		},
		OnRootSyn: func(attr int, v ag.Value) {
			switch {
			case s.ID == 0:
				s.Result(attr, v)
			case !uidChain(s.Root.Sym, attr, true):
				s.Up(attr, v, priority(s.Root.Sym, attr))
			}
		},
	}
	var ev eval.FragmentEvaluator
	switch s.Mode {
	case Combined:
		if job.A == nil {
			return nil, fmt.Errorf("cluster: combined mode requires an OAG analysis")
		}
		ev = eval.NewCombined(job.A, s.Root, s.Leaves, hooks)
	case Dynamic:
		ev = eval.NewDynamic(job.G, s.Root, hooks)
	default:
		return nil, fmt.Errorf("cluster: unknown mode %s", s.Mode)
	}
	if s.Ready != nil {
		s.Ready()
	}
	if s.UIDPreset {
		for _, k := range job.UIDs {
			if k.Sym == s.Root.Sym && s.ID != 0 {
				ev.Supply(eval.Root, k.Base, s.UIDBase)
			}
			for i, leaf := range s.Leaves {
				if k.Sym == leaf.Sym {
					ev.Supply(i, k.Count, 0)
				}
			}
		}
	}
	return ev, nil
}
