package parallel

import (
	"bytes"
	"testing"

	"pag/internal/ag"
	"pag/internal/exprlang"
	"pag/internal/tree"
)

// FuzzPlan fuzzes the planning layer's invariants on arbitrary
// appendix-grammar programs: the grammar cut plan is a pure,
// deterministic function of (grammar, analysis); both planners
// decompose without panicking and deterministically at any width,
// and the non-mutating SplitEncode agrees with them; and the cache
// key separates planners, so a plan change can never be
// served another plan's recording.
func FuzzPlan(f *testing.F) {
	f.Add("1+2*(3+4)+5*6", uint8(3))
	f.Add("let x = 2 in 1 + 3*x ni", uint8(2))
	f.Add(exprlang.Generate(6, 5), uint8(4))
	f.Add(exprlang.Generate(12, 9), uint8(6))
	l := exprlang.MustNew()
	a, err := ag.Analyze(l.G)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, src string, width uint8) {
		root, err := l.Parse(src)
		if err != nil {
			t.Skip() // not a program; nothing to plan
		}

		// Plan purity: two independent constructions agree symbol by
		// symbol, with and without the analysis.
		p1, p2 := ag.NewCutPlan(l.G, a), ag.NewCutPlan(l.G, a)
		dyn := ag.NewCutPlan(l.G, nil)
		for _, s := range l.G.Symbols {
			if p1.CutCost(s) != p2.CutCost(s) || p1.CutMessages(s) != p2.CutMessages(s) {
				t.Fatalf("cut plan not deterministic for %s", s.Name)
			}
			if p1.Classes(s) != p2.Classes(s) {
				t.Fatalf("class count not deterministic for %s", s.Name)
			}
			if dyn.Exact(s) {
				t.Fatalf("plan without analysis claims an exact incidence matrix for %s", s.Name)
			}
			// The incidence relation is reflexive: an attribute never
			// proves independent of itself.
			for i := range s.Attrs {
				if p1.Independent(s, i, i) {
					t.Fatalf("%s attr %d independent of itself", s.Name, i)
				}
			}
		}

		// Both planners decompose deterministically at any width.
		w := 2 + int(width)%7
		costOf := a.CutPlan().CostOf()
		for _, planner := range []tree.Planner{tree.PlanSize, tree.PlanCost} {
			cf := costOf
			if planner == tree.PlanSize {
				cf = nil
			}
			r1, r2 := root.Clone(), root.Clone()
			d1 := tree.DecomposeWith(r1, tree.GranularityFor(r1, w), w, planner, cf)
			d2 := tree.DecomposeWith(r2, tree.GranularityFor(r2, w), w, planner, cf)
			if d1.NumFragments() != d2.NumFragments() {
				t.Fatalf("%v: %d vs %d fragments on identical input", planner, d1.NumFragments(), d2.NumFragments())
			}
			h1, h2 := d1.Digests(), d2.Digests()
			for i := range h1 {
				if h1[i] != h2[i] {
					t.Fatalf("%v: fragment %d digest differs across identical runs", planner, i)
				}
				if d1.Frags[i].Parent != d2.Frags[i].Parent {
					t.Fatalf("%v: fragment %d parent differs across identical runs", planner, i)
				}
			}
			if b := d1.Balance(); b < 1 || b != b {
				t.Fatalf("%v: balance %v out of domain", planner, b)
			}

			// The fleet's non-mutating split agrees with the cut
			// fragments byte for byte, and with their sizes.
			dp, enc := tree.SplitEncode(root, tree.GranularityFor(root, w), w, planner, cf)
			if dp.NumFragments() != d1.NumFragments() || dp.Balance() != d1.Balance() {
				t.Fatalf("%v: SplitEncode plans %d fragments (balance %v), DecomposeWith %d (%v)",
					planner, dp.NumFragments(), dp.Balance(), d1.NumFragments(), d1.Balance())
			}
			for i, f := range d1.Frags {
				if dp.Frags[i].Parent != f.Parent || !bytes.Equal(enc[i], tree.Encode(f.Root)) {
					t.Fatalf("%v: SplitEncode fragment %d differs from the cut fragment", planner, i)
				}
			}

			// Cache keys built from this decomposition must differ
			// across planners and nothing else.
			kSize := cacheKey{g: l.G, fragsHash: tree.CombineDigests(h1), frags: d1.NumFragments(),
				width: w, gran: tree.GranularityFor(root, w), planner: tree.PlanSize}
			kCost := kSize
			kCost.planner = tree.PlanCost
			if kSize == kCost {
				t.Fatal("cache key ignores the planner")
			}
		}
	})
}
