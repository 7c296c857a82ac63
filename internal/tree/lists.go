package tree

// MaxListRun bounds the levels that lists add to any one path of a
// parsed tree. A left-recursive list (a sum, a statement or declaration
// list) adds a level per element after its first, and a list inside
// one of its elements stacks its own levels on top, so a short source
// could otherwise build a tree deeper than Decode accepts. The parsers
// charge every list against this budget; with their nesting bound of a
// thousand levels on top, every tree that parses stays far below
// maxDecodeDepth and so can be shipped to a fleet worker.
const MaxListRun = 1 << 17

// ListRuns charges the lists a recursive-descent parser builds against
// MaxListRun, per path: a list's run is the number of elements it adds
// plus the longest run among the lists parsed inside its elements.
// Open a list before its first element, Link each element as the list
// takes it, and Close the list when it ends.
type ListRuns struct{ inner int }

// List is one list being parsed.
type List struct{ outer, run int }

// Open starts a list.
func (r *ListRuns) Open() List {
	l := List{outer: r.inner}
	r.inner = 0
	return l
}

// Link charges l one element, with the lists parsed since the last
// Link, and reports whether its run stays within MaxListRun.
func (r *ListRuns) Link(l *List) bool {
	l.run = max(l.run, r.inner) + 1
	r.inner = 0
	return l.run <= MaxListRun
}

// Close ends l and charges its run, with the lists parsed since its
// last Link, to the enclosing list's element.
func (r *ListRuns) Close(l List) { r.inner = max(l.outer, l.run, r.inner) }
