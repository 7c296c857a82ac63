package eval_test

import (
	"testing"
	"time"

	"pag/internal/ag"
	"pag/internal/eval"
	"pag/internal/exprlang"
)

// TestRuleCostOnlyWithCharge checks that the evaluators compute a
// rule's simulated cost only when a Charge hook will read it: the real
// runtimes run without one and must not pay for the cost model.
func TestRuleCostOnlyWithCharge(t *testing.T) {
	l := exprlang.MustNew()
	costs := 0
	for _, p := range l.G.Prods {
		for i := range p.Rules {
			p.Rules[i].Cost = func([]ag.Value) time.Duration { costs++; return time.Microsecond }
		}
	}
	a, err := ag.Analyze(l.G)
	if err != nil {
		t.Fatal(err)
	}
	src := arithSource(20)
	for _, charged := range []bool{false, true} {
		var hooks eval.Hooks
		if charged {
			hooks.Charge = func(time.Duration) {}
		}
		for _, mode := range []string{"static", "dynamic"} {
			costs = 0
			root, err := l.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			var evals int
			if mode == "static" {
				st := eval.NewStatic(a, hooks)
				if err := st.EvaluateTree(root); err != nil {
					t.Fatal(err)
				}
				evals = st.Stats().StaticEvals
			} else {
				d := eval.NewDynamic(l.G, root, hooks)
				if d.Run(); !d.Done() {
					t.Fatal("evaluator blocked")
				}
				evals = d.Stats().DynamicEvals
			}
			want := 0
			if charged {
				want = evals
			}
			if costs != want {
				t.Errorf("%s, charged=%v: %d cost calls for %d evaluations, want %d", mode, charged, costs, evals, want)
			}
		}
	}
}
