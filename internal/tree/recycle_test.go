package tree_test

import (
	"bytes"
	"fmt"
	"testing"

	"pag/internal/pascal"
	"pag/internal/tree"
	"pag/internal/workload"
)

// TestRecycledDecodeAllocatesNoSlab guards the fleet worker's steady
// state: a decode into a builder cleared after the same-sized tree
// takes every slab from the builder and allocates only per terminal
// (the lexical values) plus a small constant (the input's string copy
// and the decoder's stack).
func TestRecycledDecodeAllocatesNoSlab(t *testing.T) {
	l := pascal.MustNew()
	job, err := l.ClusterJob(workload.Generate(workload.CourseCompiler()))
	if err != nil {
		t.Fatal(err)
	}
	_, enc := tree.SplitEncode(job.Root, tree.GranularityFor(job.Root, 2), 2)
	data := enc[1]
	var b tree.Builder
	b.Clear()
	root, err := b.Decode(job.G, data, l.TerminalAttrs)
	if err != nil {
		t.Fatal(err)
	}
	terminals := 0
	root.Walk(func(n *tree.Node) {
		if n.Sym.Terminal {
			terminals++
		}
	})
	b.Clear()
	slabs := b.Slabs()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := b.Decode(job.G, data, l.TerminalAttrs); err != nil {
			t.Fatal(err)
		}
		b.Clear()
	})
	if b.Slabs() != slabs {
		t.Errorf("recycled decodes grew the builder from %d to %d slabs", slabs, b.Slabs())
	}
	if limit := float64(2*terminals + 32); allocs > limit {
		t.Errorf("recycled decode of %d terminals: %.0f allocations, want <= %.0f", terminals, allocs, limit)
	}
	t.Logf("%d terminals, %d slabs kept, %.0f allocations per recycled decode", terminals, slabs, allocs)
}

// TestRecycledDecodeMatchesFresh decodes every course fragment at
// widths 1-4 into one builder, cleared between trees of different
// shapes, and checks each tree equals a fresh decode's: same encoding,
// same hash, no remote leaf or token left over from an earlier tree.
func TestRecycledDecodeMatchesFresh(t *testing.T) {
	l := pascal.MustNew()
	job, err := l.ClusterJob(workload.Generate(workload.CourseCompiler()))
	if err != nil {
		t.Fatal(err)
	}
	var b tree.Builder
	for _, w := range []int{4, 1, 3, 2} {
		_, enc := tree.SplitEncode(job.Root, tree.GranularityFor(job.Root, w), w)
		for i, data := range enc {
			fresh, err := tree.Decode(job.G, data, l.TerminalAttrs)
			if err != nil {
				t.Fatal(err)
			}
			got, err := b.Decode(job.G, data, l.TerminalAttrs)
			if err != nil {
				t.Fatalf("width %d fragment %d: recycled decode: %v", w, i, err)
			}
			if !bytes.Equal(tree.Encode(got), data) || tree.Hash(got) != tree.Hash(fresh) ||
				len(tree.RemoteLeaves(got)) != len(tree.RemoteLeaves(fresh)) {
				t.Errorf("width %d fragment %d: recycled tree differs from a fresh decode", w, i)
			}
			b.Clear()
		}
	}
}

// TestNoInteriorSlots: a parse, a decode and a recycled decode build
// interior nodes and remote leaves without attribute slots (evaluators
// keep those instances), while terminals keep their scanner values.
func TestNoInteriorSlots(t *testing.T) {
	l := pascal.MustNew()
	job, err := l.ClusterJob(workload.Generate(workload.CourseCompiler()))
	if err != nil {
		t.Fatal(err)
	}
	checkSlots(t, "parse", job.Root)
	_, enc := tree.SplitEncode(job.Root, tree.GranularityFor(job.Root, 2), 2)
	var b tree.Builder
	b.Clear()
	recycled := func(data []byte) (*tree.Node, error) {
		b.Clear()
		return b.Decode(job.G, data, l.TerminalAttrs)
	}
	for i, data := range enc {
		for name, decode := range map[string]func([]byte) (*tree.Node, error){
			"decode":   func(d []byte) (*tree.Node, error) { return tree.Decode(job.G, d, l.TerminalAttrs) },
			"recycled": recycled,
		} {
			root, err := decode(data)
			if err != nil {
				t.Fatal(err)
			}
			checkSlots(t, fmt.Sprintf("%s of fragment %d", name, i), root)
		}
	}
}

func checkSlots(t *testing.T, name string, root *tree.Node) {
	t.Helper()
	slotted, terminals := 0, 0
	root.Walk(func(n *tree.Node) {
		switch {
		case n.Sym.Terminal:
			if len(n.Attrs) != len(n.Sym.Attrs) {
				terminals++
			}
		case n.Attrs != nil:
			slotted++
		}
	})
	if slotted != 0 || terminals != 0 {
		t.Errorf("%s: %d interior nodes or remote leaves hold slots and %d terminals lack them", name, slotted, terminals)
	}
}
