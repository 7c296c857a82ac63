package tree

import (
	"fmt"
	"strings"

	"pag/internal/ag"
)

// Fragment is one separately evaluated piece of a decomposed parse
// tree. Fragment 0 is the root fragment (it contains the tree root);
// every other fragment hangs off a remote leaf of its parent fragment.
// Fragments form the process tree of paper Figures 6–7.
type Fragment struct {
	ID     int
	Parent int // parent fragment ID; -1 for the root fragment
	Root   *Node
}

// Decomposition is the result of splitting a parse tree.
type Decomposition struct {
	Frags []*Fragment

	// children[id] lists the fragments directly below fragment id, in
	// ID order. Built once at decompose time so the splice and fleet
	// paths never re-scan the fragment list per lookup.
	children [][]int

	// cuts is set on a planned decomposition (SplitEncode), whose
	// fragment roots are nodes of the uncut tree: fragment i+1 is the
	// subtree at cuts[i].node less the later cuts below it. nil when
	// every Frags[i].Root is the cut fragment itself.
	cuts []cut
}

// NumFragments returns the number of fragments.
func (d *Decomposition) NumFragments() int { return len(d.Frags) }

// Children returns the IDs of the fragments directly below fragment
// id, in ID order. For decompositions produced by Decompose the index
// is prebuilt (O(1) per call); hand-assembled values fall back to a
// scan.
func (d *Decomposition) Children(id int) []int {
	if d.children != nil {
		return d.children[id]
	}
	var out []int
	for _, f := range d.Frags {
		if f.Parent == id {
			out = append(out, f.ID)
		}
	}
	return out
}

// buildChildren populates the child index from the Parent links.
func (d *Decomposition) buildChildren() {
	d.children = make([][]int, len(d.Frags))
	for _, f := range d.Frags {
		if f.Parent >= 0 {
			d.children[f.Parent] = append(d.children[f.Parent], f.ID)
		}
	}
}

// Sizes returns the linearized size of every fragment (after cuts).
func (d *Decomposition) Sizes() []int {
	out := make([]int, len(d.Frags))
	for i, f := range d.Frags {
		out[i] = f.Root.Size()
	}
	// A planned decomposition's roots still hold the subtrees cut from
	// them; each cut leaves a remote leaf in its place.
	for i, c := range d.cuts {
		out[c.from] -= out[i+1] - remoteSize
	}
	return out
}

// Balance returns max/mean of the fragment sizes (1.0 = perfectly
// even); it quantifies the paper's §4.1 observation that the best
// machine count is the one whose decomposition is most even.
// Degenerate decompositions — no fragments at all, or every fragment
// of size zero — have nothing to balance and are defined as perfectly
// even (1.0) rather than dividing by zero.
func (d *Decomposition) Balance() float64 {
	return balanceOf(d.Sizes())
}

// balanceOf is Balance on a raw size slice, separated so degenerate
// inputs are testable directly (Node.Size never reports zero, but
// Balance's contract should not depend on that invariant).
func balanceOf(sizes []int) float64 {
	if len(sizes) == 0 {
		return 1
	}
	max, sum := 0, 0
	for _, s := range sizes {
		if s > max {
			max = s
		}
		sum += s
	}
	if sum == 0 {
		return 1
	}
	return float64(max) * float64(len(sizes)) / float64(sum)
}

// shallowSize is the linearized size contribution of the node itself,
// excluding children.
func shallowSize(n *Node) int {
	switch {
	case n.Remote:
		return remoteSize
	case n.Sym.Terminal:
		return terminalSize(n.Token)
	default:
		return 2
	}
}

// Decomposition granularity constants, from the paper's §2.5 runtime
// scaling argument: the parser accumulates roughly `granularity`
// linearized bytes per fragment and cuts the remainder off at the next
// split-eligible node.
const (
	// MinGranularity is the smallest usable fragment budget. Below ~8
	// bytes a "fragment" is smaller than the remote-leaf placeholder
	// (4 bytes) plus one interior node that replaces it, so every cut
	// would grow the workload instead of distributing it; Decompose
	// clamps silently (historic behavior), callers that accept user
	// input should validate and reject instead.
	MinGranularity = 8
	// splitFloorDiv scales granularity down to the minimum subtree
	// worth shipping: a subtree under granularity/splitFloorDiv costs
	// more in message traffic (its whole attribute interface crosses
	// the network) than its evaluation saves, per the §2.5 argument
	// that split sizes must scale with the per-message overhead. The
	// grammar's per-symbol MinSplitSize still applies when larger.
	splitFloorDiv = 5
)

// splitFloor is the minimum linearized size of a subtree worth cutting
// at a node with symbol sym, for a given fragment granularity.
func splitFloor(sym *ag.Symbol, granularity int) int {
	floor := sym.MinSplitSize
	if g := granularity / splitFloorDiv; g > floor {
		floor = g
	}
	return floor
}

// cut records one planned decomposition cut: child node of parent
// (parent.Children[idx]) roots a new fragment, removed from fragment
// `from`. Cuts are listed in fragment-ID order (ID = 1 + slice index).
type cut struct {
	parent *Node
	idx    int
	node   *Node
	from   int
}

// planCuts runs the §2.5 size-driven walk — the one cut decision that
// Decompose and SplitEncode share — and returns the cuts it decides,
// without mutating the tree. rem[f] is the size fragment f still
// retains; a subtree is cut off only while the fragment keeps at least
// one granularity's worth of work for itself, so left-recursive
// declaration and statement lists decompose into a chain of roughly
// granularity-sized pieces (the shape of paper Figure 7).
func planCuts(root *Node, granularity, maxFrags int) []cut {
	if maxFrags <= 1 {
		return nil
	}
	if granularity < MinGranularity {
		granularity = MinGranularity
	}
	rem := []int{root.Size()} // sizes of hand-assembled trees are computed here, before the walk
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

// fromCuts builds the decomposition cuts describe: fragment i+1 is
// rooted at cuts[i].node and hangs below fragment cuts[i].from.
func fromCuts(root *Node, cuts []cut) *Decomposition {
	d := &Decomposition{Frags: make([]*Fragment, 1, 1+len(cuts))}
	d.Frags[0] = &Fragment{ID: 0, Parent: -1, Root: root}
	for i, c := range cuts {
		d.Frags = append(d.Frags, &Fragment{ID: i + 1, Parent: c.from, Root: c.node})
	}
	d.buildChildren()
	return d
}

// Decompose splits the tree rooted at root into at most maxFrags
// fragments by cutting at split-eligible nonterminals (the `split`
// declarations of the grammar). granularity is the target fragment
// size in linearized bytes — the parser's runtime scaling argument of
// paper §2.5: a fragment accumulates roughly granularity bytes and the
// remainder is cut off into a new fragment at the next eligible node.
// Cut subtrees must also meet the grammar's per-symbol MinSplitSize.
//
// The tree is mutated: cut subtrees are replaced by remote leaves.
// Decompose(root, _, 1) performs no cuts.
func Decompose(root *Node, granularity, maxFrags int) *Decomposition {
	cuts := planCuts(root, granularity, maxFrags)
	d := fromCuts(root, cuts)
	if len(cuts) == 0 {
		return d
	}
	for i, c := range cuts {
		c.parent.Children[c.idx] = newRemote(c.node.Sym, i+1)
	}
	// Cuts invalidate cached sizes (remote leaves are smaller than the
	// subtrees they replace); recompute per fragment.
	for _, f := range d.Frags {
		f.Root.invalidateSizes()
		f.Root.Size()
	}
	return d
}

// Planner names a decomposition policy. PlanSize, the §2.5 size-driven
// walk of Decompose, is the only one.
type Planner int

// PlanSize is the size-driven decomposition policy of Decompose.
const PlanSize Planner = 0

// DecomposeWith is Decompose under an explicit policy; the policy and
// the cost callback are ignored. It remains only for the benchmark
// harness (perfbench/layers.go), which times the split through it.
func DecomposeWith(root *Node, granularity, maxFrags int, _ Planner, _ func(*ag.Symbol) int) *Decomposition {
	return Decompose(root, granularity, maxFrags)
}

// GranularityFor picks a split threshold aimed at producing
// approximately machines fragments of roughly equal size: the total
// linearized size divided by the machine count (clamped to a small
// floor so pathological inputs are not shredded).
func GranularityFor(root *Node, machines int) int {
	if machines <= 1 {
		return root.Size() + 1
	}
	g := root.Size() / machines
	if g < 16 {
		g = 16
	}
	return g
}

// Describe renders the process tree with fragment sizes, labelling
// fragments a, b, c, ... in ID order as in paper Figure 7.
func (d *Decomposition) Describe() string {
	var b strings.Builder
	sizes := d.Sizes()
	var rec func(id, depth int)
	rec = func(id, depth int) {
		f := d.Frags[id]
		fmt.Fprintf(&b, "%s%c: %s (%d bytes)\n",
			strings.Repeat("  ", depth), 'a'+id, f.Root.Sym.Name, sizes[id])
		for _, c := range d.Children(id) {
			rec(c, depth+1)
		}
	}
	rec(0, 0)
	return b.String()
}
