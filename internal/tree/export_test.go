package tree

import "slices"

// planCutsFullWalk is the split walk without pruning: it visits every
// node of the tree, so it is the reference planCuts, which stops at its
// last cut and skips subtrees below the split floor, must agree with.
func planCutsFullWalk(root *Node, granularity, maxFrags int) []cut {
	if maxFrags <= 1 {
		return nil
	}
	if granularity < MinGranularity {
		granularity = MinGranularity
	}
	rem := []int{root.Size()}
	var cuts []cut
	var walk func(n *Node, frag int)
	walk = func(n *Node, frag int) {
		for i, c := range n.Children {
			if 1+len(cuts) < maxFrags &&
				!c.Remote && !c.Sym.Terminal && c.Sym.Split &&
				c.Size() >= splitFloor(c.Sym, granularity) &&
				rem[frag]-c.Size() >= granularity {
				id := len(rem)
				cuts = append(cuts, cut{parent: n, idx: i, node: c, from: frag})
				rem[frag] -= c.Size()
				rem = append(rem, c.Size())
				walk(c, id)
			} else {
				walk(c, frag)
			}
		}
	}
	walk(root, 0)
	return cuts
}

// PlanCutsAgainstFullWalk plans root's cuts with planCuts and with the
// full reference walk and reports both cut counts and whether the two
// cut lists are identical.
func PlanCutsAgainstFullWalk(root *Node, granularity, maxFrags int) (got, want int, same bool) {
	g, w := planCuts(root, granularity, maxFrags), planCutsFullWalk(root, granularity, maxFrags)
	return len(g), len(w), slices.Equal(g, w)
}
