package tree_test

import (
	"testing"

	"pag/internal/pascal"
	"pag/internal/tree"
	"pag/internal/workload"
)

// BenchmarkSplit compares the two ways a runtime obtains the encoded
// fragments of a course-sized program at width 2: cutting a private
// clone and encoding the cut fragments (what a runtime that evaluates
// the fragments itself must do), against SplitEncode straight from
// the shared tree (what the fleet coordinator does). BenchmarkDecode
// times a worker's session-open decode of the root fragment.
func BenchmarkSplit(b *testing.B) {
	job, err := pascal.MustNew().ClusterJob(workload.Generate(workload.CourseCompiler()))
	if err != nil {
		b.Fatal(err)
	}
	const width = 2
	gran := tree.GranularityFor(job.Root, width)
	b.Run("clone-decompose-encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d := tree.DecomposeWith(job.Root.Clone(), gran, width, tree.PlanSize, nil)
			for _, f := range d.Frags {
				tree.Encode(f.Root)
			}
		}
	})
	b.Run("split-encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tree.SplitEncode(job.Root, gran, width, tree.PlanSize, nil)
		}
	})
}

func BenchmarkDecode(b *testing.B) {
	l := pascal.MustNew()
	job, err := l.ClusterJob(workload.Generate(workload.CourseCompiler()))
	if err != nil {
		b.Fatal(err)
	}
	_, enc := tree.SplitEncode(job.Root, tree.GranularityFor(job.Root, 2), 2, tree.PlanSize, nil)
	b.ReportAllocs()
	b.SetBytes(int64(len(enc[0])))
	for i := 0; i < b.N; i++ {
		if _, err := tree.Decode(job.G, enc[0], l.TerminalAttrs); err != nil {
			b.Fatal(err)
		}
	}
}
