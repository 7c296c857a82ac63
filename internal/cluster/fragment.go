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
	ID     int          // fragment id; 0 is the root fragment
	Root   *tree.Node   // the fragment's subtree
	Leaves []*tree.Node // remote leaves of Root, in tree order
	// UIDBase is the unique-identifier base the parser hands this
	// fragment under UIDPreset (UIDBaseFor(ID) in every runtime).
	UIDBase int

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

	// Down ships inherited attribute attr of remote leaf leaf to the
	// child fragment leaf.RemoteID.
	Down func(leaf *tree.Node, attr int, v ag.Value, priority bool)
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
		OnRemoteInh: func(leaf *tree.Node, attr int, v ag.Value) {
			if uidChain(leaf.Sym, attr, false) {
				return
			}
			s.Down(leaf, attr, v, priority(leaf.Sym, attr))
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
		ev = eval.NewCombined(job.A, s.Root, hooks)
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
				ev.Supply(s.Root, k.Base, s.UIDBase)
			}
			for _, leaf := range s.Leaves {
				if k.Sym == leaf.Sym {
					ev.Supply(leaf, k.Count, 0)
				}
			}
		}
	}
	return ev, nil
}
