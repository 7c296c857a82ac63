package cluster_test

import (
	"errors"
	"testing"

	"pag/internal/cluster"
	"pag/internal/pascal"
	"pag/internal/tree"
	"pag/internal/workload"
)

// TestEndpointRefusesSecondValue checks Supply's single-assignment
// rule at a remote leaf, under both evaluators: a synthesized value a
// child fragment shipped is accepted once and refused the second time,
// and the count of a unique-identifier pair, which the preset already
// supplied, is refused outright.
func TestEndpointRefusesSecondValue(t *testing.T) {
	l := pascal.MustNew()
	job, err := l.ClusterJob(workload.Generate(workload.Small()))
	if err != nil {
		t.Fatal(err)
	}
	d, enc := tree.SplitEncode(job.Root, tree.GranularityFor(job.Root, 4), 4)
	open := func(id int, mode cluster.Mode, up func(attr int, data []byte)) *cluster.Endpoint {
		t.Helper()
		ep, err := cluster.NewEndpoint(job, enc[id], cluster.FragmentSpec{
			ID: id, UIDBase: cluster.UIDBaseFor(id), Mode: mode, UIDPreset: true,
		}, cluster.Wire{
			Down:   func(*tree.Node, int, []byte) {},
			Up:     up,
			Result: func(int, []byte, bool) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		return ep
	}
	checked := 0
	for _, mode := range []cluster.Mode{cluster.Combined, cluster.Dynamic} {
		for _, f := range d.Frags {
			for _, child := range d.Children(f.ID) {
				sym := d.Frags[child].Root.Sym
				// The child's first Run ships the values that need no
				// input from its parent.
				var ups []int
				var data [][]byte
				kid := open(child, mode, func(attr int, b []byte) { ups, data = append(ups, attr), append(data, b) })
				if err := kid.Run(); err != nil {
					t.Fatal(err)
				}
				parent := open(f.ID, mode, func(int, []byte) {})
				for i, attr := range ups {
					if err := parent.Supply(child, attr, data[i]); err != nil {
						t.Fatalf("%v fragment %d: first %s.%s: %v", mode, f.ID, sym.Name, sym.Attrs[attr].Name, err)
					}
					if err := parent.Supply(child, attr, data[i]); !errors.Is(err, cluster.ErrDuplicateValue) {
						t.Fatalf("%v fragment %d: second %s.%s returned %v, want ErrDuplicateValue", mode, f.ID, sym.Name, sym.Attrs[attr].Name, err)
					}
					checked++
				}
				for _, k := range job.UIDs {
					if k.Sym != sym {
						continue
					}
					zero, err := sym.Attrs[k.Count].Codec.Encode(0)
					if err != nil {
						t.Fatal(err)
					}
					if err := parent.Supply(child, k.Count, zero); !errors.Is(err, cluster.ErrDuplicateValue) {
						t.Fatalf("%v fragment %d: preset %s.%s supplied again returned %v, want ErrDuplicateValue", mode, f.ID, sym.Name, sym.Attrs[k.Count].Name, err)
					}
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no fragment shipped a value to its parent; the test exercises nothing")
	}
}
