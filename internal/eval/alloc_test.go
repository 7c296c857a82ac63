package eval_test

import (
	"strings"
	"testing"

	"pag/internal/ag"
	"pag/internal/eval"
	"pag/internal/exprlang"
)

// arithSource builds a pure-arithmetic expression whose semantic rules
// allocate nothing in steady state: integer results are interned via
// ag.IntValue and the symbol table is the shared empty table.
func arithSource(terms int) string {
	var b strings.Builder
	b.WriteString("1")
	for i := 0; i < terms; i++ {
		if i%2 == 0 {
			b.WriteString("+2*3")
		} else {
			b.WriteString("+(4+5)")
		}
	}
	return b.String()
}

// TestStaticVisitAllocFree locks in the zero-allocation steady state of
// the static evaluator's inner loop: once the evaluator exists,
// re-running the visit sequences over a tree must not allocate at all
// (scratch argument buffer, compiled plans, interned small ints). This
// is the regression guard the perf work depends on — reintroducing a
// per-op make([]ag.Value, ...) or un-interning the int attributes
// fails this test immediately.
func TestStaticVisitAllocFree(t *testing.T) {
	l := exprlang.MustNew()
	a, err := ag.Analyze(l.G)
	if err != nil {
		t.Fatal(err)
	}
	root, err := l.Parse(arithSource(40))
	if err != nil {
		t.Fatal(err)
	}
	st := eval.NewStatic(a, eval.Hooks{})
	visits := a.NumVisits(root.Sym)
	run := func() {
		for v := 1; v <= visits; v++ {
			st.Visit(root, v)
		}
	}
	run() // warm
	if allocs := testing.AllocsPerRun(50, run); allocs > 0 {
		t.Errorf("static visit loop allocates %.1f times per tree pass; want 0", allocs)
	}
}

// TestDynamicEvaluatorAllocBudget bounds the allocations of a complete
// dynamic build+evaluate cycle. The flat instance table, slab-carved
// dependent edges and reusable ready queues put the build cost at a
// handful of slice growths — nowhere near the one-allocation-per-
// instance regime of a map-based graph. The budget is under 2x the
// measured value (71 allocs for 444 instances), loose enough for
// layout jitter and tight enough that a return to per-instance
// allocation fails.
func TestDynamicEvaluatorAllocBudget(t *testing.T) {
	l := exprlang.MustNew()
	root, err := l.Parse(arithSource(40))
	if err != nil {
		t.Fatal(err)
	}
	instances := root.CountAttrs()
	allocs := testing.AllocsPerRun(20, func() {
		d := eval.NewDynamic(l.G, root, eval.Hooks{})
		if d.Run(); !d.Done() {
			t.Fatal("evaluator blocked")
		}
	})
	const budget = 120
	if allocs > budget {
		t.Errorf("dynamic build+run allocates %.0f times for %d instances; budget %d", allocs, instances, budget)
	}
}

// TestCombinedEvaluatorAllocBudget does the same for the combined
// evaluator on a fully local fragment (the static fast path plus the
// combined bookkeeping around it).
func TestCombinedEvaluatorAllocBudget(t *testing.T) {
	l := exprlang.MustNew()
	a, err := ag.Analyze(l.G)
	if err != nil {
		t.Fatal(err)
	}
	root, err := l.Parse(arithSource(40))
	if err != nil {
		t.Fatal(err)
	}
	instances := root.CountAttrs()
	allocs := testing.AllocsPerRun(20, func() {
		c := eval.NewCombined(a, root, nil, eval.Hooks{})
		if c.Run(); !c.Done() {
			t.Fatal("evaluator blocked")
		}
	})
	const budget = 60
	if allocs > budget {
		t.Errorf("combined build+run allocates %.0f times for %d instances; budget %d", allocs, instances, budget)
	}
}
