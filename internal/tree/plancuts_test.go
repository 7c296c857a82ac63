package tree_test

import (
	"fmt"
	"testing"

	"pag/internal/exprlang"
	"pag/internal/pascal"
	"pag/internal/tree"
	"pag/internal/workload"
)

// TestPlanCutsMatchesFullWalk: the split walk that stops at its last
// cut and skips subtrees below the split floor decides exactly the
// cuts of the walk that visits every node, at widths 1-8, each at the
// width's own granularity and at a finer one (more candidates than the
// width can take), on random Pascal programs, expression programs and
// the planning fuzzer's seed programs.
func TestPlanCutsMatchesFullWalk(t *testing.T) {
	var roots []*tree.Node
	var names []string
	pl := pascal.MustNew()
	for seed := int64(1); seed <= 6; seed++ {
		for _, cfg := range []workload.Config{workload.Tiny(), workload.Small(), workload.CourseCompiler()} {
			cfg.Seed = seed
			job, err := pl.ClusterJob(workload.Generate(cfg))
			if err != nil {
				t.Fatal(err)
			}
			roots, names = append(roots, job.Root), append(names, fmt.Sprintf("pascal %d-proc seed %d", cfg.Procs, seed))
		}
	}
	el := exprlang.MustNew()
	srcs := []string{"1+2*(3+4)+5*6", "let x = 2 in 1 + 3*x ni", exprlang.Generate(6, 5), exprlang.Generate(12, 9)}
	for blocks := 1; blocks <= 24; blocks += 5 {
		srcs = append(srcs, exprlang.Generate(blocks, 1+blocks%7), exprlang.GenerateNested(blocks, 1+blocks%5))
	}
	for _, src := range srcs {
		root, err := el.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		roots, names = append(roots, root), append(names, fmt.Sprintf("expr %.20q", src))
	}
	for i, root := range roots {
		for width := 1; width <= 8; width++ {
			for _, gran := range []int{tree.GranularityFor(root, width), tree.GranularityFor(root, 3*width)} {
				if got, want, same := tree.PlanCutsAgainstFullWalk(root, gran, width); !same {
					t.Errorf("%s, width %d, granularity %d: %d cuts differ from the full walk's %d", names[i], width, gran, got, want)
				}
			}
		}
	}
}
