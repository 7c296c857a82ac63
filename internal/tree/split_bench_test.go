package tree_test

import (
	"fmt"
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
			d := tree.Decompose(job.Root.Clone(), gran, width)
			for _, f := range d.Frags {
				tree.Encode(f.Root)
			}
		}
	})
	b.Run("split-encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tree.SplitEncode(job.Root, gran, width)
		}
	})
}

// BenchmarkDecode times a worker's session-open decode of the root
// fragment: into new storage ("fresh"), and into a builder cleared
// after the previous decode ("recycled"), as a fleet worker's open does
// in steady state.
func BenchmarkDecode(b *testing.B) {
	l := pascal.MustNew()
	job, err := l.ClusterJob(workload.Generate(workload.CourseCompiler()))
	if err != nil {
		b.Fatal(err)
	}
	_, enc := tree.SplitEncode(job.Root, tree.GranularityFor(job.Root, 2), 2)
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(enc[0])))
		for i := 0; i < b.N; i++ {
			if _, err := tree.Decode(job.G, enc[0], l.TerminalAttrs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("recycled", func(b *testing.B) {
		var tb tree.Builder
		tb.Clear()
		b.ReportAllocs()
		b.SetBytes(int64(len(enc[0])))
		for i := 0; i < b.N; i++ {
			if _, err := tb.Decode(job.G, enc[0], l.TerminalAttrs); err != nil {
				b.Fatal(err)
			}
			tb.Clear()
		}
	})
}

// BenchmarkDigests times the content addresses of the course program:
// the source key a front end gives its jobs (pascal.SourceKey, what a
// cached pool keys a parsed program by), tree.Hash of the whole tree
// (what it keys a hand-built tree by), and Decomposition.Digests over
// the cuts Decompose applied to a clone at widths 2 and 8.
func BenchmarkDigests(b *testing.B) {
	src := workload.Generate(workload.CourseCompiler())
	job, err := pascal.MustNew().ClusterJob(src)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("source-key", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(src)))
		for i := 0; i < b.N; i++ {
			pascal.SourceKey(src)
		}
	})
	b.Run("tree-hash", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tree.Hash(job.Root)
		}
	})
	for _, width := range []int{2, 8} {
		applied := tree.Decompose(job.Root.Clone(), tree.GranularityFor(job.Root, width), width)
		b.Run(fmt.Sprintf("applied/width=%d", width), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				applied.Digests()
			}
		})
	}
}
