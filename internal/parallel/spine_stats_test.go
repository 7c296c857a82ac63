package parallel_test

import (
	"testing"

	"pag/internal/cluster"
	"pag/internal/parallel"
	"pag/internal/workload"
)

// TestCombinedWorkSplitPinned pins how the combined evaluator divides
// the course program's attribute instances between the dynamic spine
// and the static visits at widths 1, 2 and 8. The spine is marked from
// each fragment's remote-leaf list; a spine that missed or added a node
// would move instances between the two counts.
func TestCombinedWorkSplitPinned(t *testing.T) {
	job := pascalJob(t, workload.CourseCompiler())
	for _, tc := range []struct {
		width, dynamic, static, graphNodes int
	}{
		{1, 0, 120170, 0},
		{2, 159, 120011, 237},
		{8, 1791, 118379, 2714},
	} {
		res, err := parallel.Run(job, parallel.Options{
			Workers: tc.width, Mode: cluster.Combined, Librarian: true, UIDPreset: true, NoCache: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		s := res.Stats
		if s.DynamicEvals != tc.dynamic || s.StaticEvals != tc.static || s.GraphNodes != tc.graphNodes {
			t.Errorf("width %d: %d dynamic, %d static, %d graph nodes; want %d, %d, %d",
				tc.width, s.DynamicEvals, s.StaticEvals, s.GraphNodes, tc.dynamic, tc.static, tc.graphNodes)
		}
	}
}
