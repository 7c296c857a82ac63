package eval

import (
	"fmt"
	"sync"

	"pag/internal/ag"
	"pag/internal/arena"
	"pag/internal/tree"
)

// Static is the static ordered evaluator of paper §2.3 / Figure 3: a
// collection of visit procedures, one per production, that walk the
// tree in the order precomputed by the OAG analysis. It performs no
// dependency analysis at evaluation time, and — driving the compiled
// visit sequences cached per production by the analysis — no rule
// lookups and no allocation either: rule arguments pass through one
// reusable scratch buffer.
//
// Attribute instances live where their lifetime needs them (Kastens'
// attribute lifetime analysis). A production of one visit keeps its
// nonterminal children's instances in a frame that lives only while
// the visit runs, on a stack borrowed for the outermost visit and
// returned, cleared, when it ends. Only the node Visit is called on and
// the children of multi-visit productions, whose instances must outlive
// a visit, use node slots; a node without them gets them carved from
// the evaluator's own slab. Terminals keep their scanner values in
// their node slots.
type Static struct {
	a      *ag.Analysis
	hooks  Hooks
	stats  Stats
	argbuf []ag.Value // scratch for rule arguments; rules must not retain it
	slots  slotSlab
}

// NewStatic returns a static evaluator over the given grammar analysis.
func NewStatic(a *ag.Analysis, hooks Hooks) *Static {
	return &Static{a: a, hooks: hooks, argbuf: make([]ag.Value, a.G.MaxRuleArgs())}
}

// EvaluateTree evaluates every attribute instance of a complete local
// tree (no remote leaves). The root's inherited attributes, if any,
// must be preset on root.Attrs (a parsed root has no slots: give it
// one per attribute first). Afterwards the root's synthesized values
// are in root.Attrs.
func (s *Static) EvaluateTree(root *tree.Node) error {
	var remote *tree.Node
	root.Walk(func(n *tree.Node) {
		if n.Remote && remote == nil {
			remote = n
		}
	})
	if remote != nil {
		return fmt.Errorf("eval: static evaluator cannot process a fragment with remote leaves (found %s); use the combined evaluator", remote.Sym)
	}
	if root.Sym.Terminal {
		return nil
	}
	for v := 1; v <= s.a.NumVisits(root.Sym); v++ {
		s.Visit(root, v)
	}
	return nil
}

// Visit runs visit number v (1-based) of the static plan on node n,
// whose instances live in its node slots (carved if n has none). The
// inherited attributes of n's phases 1..v must already be set. After
// Visit returns, the synthesized attributes of phase v are set.
func (s *Static) Visit(n *tree.Node, v int) {
	s.slots.carve(n)
	stk := borrowFrames()
	s.visit(n, n.Attrs, v, stk)
	returnFrames(stk)
}

// visit runs visit v of n's production, with n's own instances in own
// and the frames of single-visit productions on stk.
func (s *Static) visit(n *tree.Node, own []ag.Value, v int, stk *frameStack) {
	plan := s.a.Compiled(n.Prod)
	var frame []ag.Value
	mark := stk.mark()
	if plan.Frame > 0 {
		frame = stk.push(plan.Frame)
	} else if plan.ChildSlots {
		for _, c := range n.Children {
			s.slots.carve(c)
		}
	}
	seg := plan.Segments[v-1]
	for i := range seg {
		op := &seg[i]
		if op.Rule != nil {
			s.evalOp(n, own, frame, op)
			continue
		}
		s.hooks.charge(CostVisit)
		c := n.Children[op.Child-1]
		if op.Frame < 0 {
			s.visit(c, c.Attrs, int(op.Visit), stk)
		} else {
			s.visit(c, frame[op.Frame:op.FrameEnd:op.FrameEnd], int(op.Visit), stk)
		}
	}
	if plan.Frame > 0 {
		stk.pop(mark)
	}
}

func (s *Static) evalOp(n *tree.Node, own, frame []ag.Value, op *ag.CompiledOp) {
	rule := op.Rule
	args := s.argbuf[:len(op.Args)]
	for k := range op.Args {
		l := &op.Args[k]
		switch l.Where {
		case ag.InOwn:
			args[k] = own[l.Index]
		case ag.InFrame:
			args[k] = frame[l.Index]
		default:
			args[k] = n.Children[l.Occ-1].Attrs[l.Index]
		}
	}
	val := rule.Eval(args)
	switch t := &op.Target; t.Where {
	case ag.InOwn:
		own[t.Index] = val
	case ag.InFrame:
		frame[t.Index] = val
	default:
		n.Children[t.Occ-1].Attrs[t.Index] = val
	}
	if s.hooks.Charge != nil {
		s.hooks.Charge(rule.SimCost(args) + CostStaticOp)
	}
	s.stats.StaticEvals++
}

// Stats returns evaluation statistics.
func (s *Static) Stats() Stats { return s.stats }

// slotSlab is the storage an evaluator carves node slots from. Parsed
// and decoded trees carry no interior slots; an evaluator carves them
// only for the nodes it must address across visits or runtimes, and
// allocates its slab only when it first carves.
type slotSlab struct{ slab *arena.Slab[ag.Value] }

// carve gives n one slot per attribute of its symbol if it has none.
func (ss *slotSlab) carve(n *tree.Node) {
	if len(n.Attrs) < len(n.Sym.Attrs) {
		if ss.slab == nil {
			ss.slab = new(arena.Slab[ag.Value])
		}
		n.Attrs = ss.slab.Make(len(n.Sym.Attrs))
	}
}

// frameChunk is the size, in values, of a frame stack's first chunk.
const frameChunk = 1024

// frameStack holds the frames of the single-visit productions being
// visited. It is a list of chunks that never move once allocated, so a
// frame stays where it is however deep the visits nest: a push that
// does not fit the current chunk moves on to the next. Each chunk
// records how far it was ever filled, and release clears the chunks
// only that far, so no value outlives the visit that made it.
type frameStack struct {
	chunks [][]ag.Value
	used   []int      // high-water mark of each chunk left since the last release
	buf    []ag.Value // chunks[cur], the chunk in use
	cur    int
	top    int // first free slot of buf
	hi     int // high-water mark of buf
}

// frameMark is a stack position that pop returns to.
type frameMark struct{ cur, top int }

// Frame stacks are lent to outermost visits from one free list, so
// evaluators share a few stacks instead of each growing its own. The
// list holds at most keptFrameStacks stacks of at most keptFrameSlots
// slots each; they hold no values once released. It is a plain list,
// not a sync.Pool: a pool drops its stacks at every other collection
// and keeps one per processor, so a busy compiler would keep growing
// new ones.
const (
	keptFrameStacks = 16
	keptFrameSlots  = 1 << 16
)

var frameStacks struct {
	sync.Mutex
	free []*frameStack
}

// borrowFrames takes an empty frame stack off the free list, or makes
// one.
func borrowFrames() *frameStack {
	frameStacks.Lock()
	defer frameStacks.Unlock()
	if k := len(frameStacks.free); k > 0 {
		fs := frameStacks.free[k-1]
		frameStacks.free = frameStacks.free[:k-1]
		return fs
	}
	return new(frameStack)
}

// returnFrames releases fs and puts it back on the free list, unless
// the list is full or fs grew too large to keep.
func returnFrames(fs *frameStack) {
	fs.release()
	size := 0
	for _, c := range fs.chunks {
		size += len(c)
	}
	frameStacks.Lock()
	defer frameStacks.Unlock()
	if len(frameStacks.free) < keptFrameStacks && size <= keptFrameSlots {
		frameStacks.free = append(frameStacks.free, fs)
	}
}

// mark returns the stack position, for pop.
func (fs *frameStack) mark() frameMark { return frameMark{fs.cur, fs.top} }

// push returns a frame of n slots.
func (fs *frameStack) push(n int) []ag.Value {
	if fs.top+n > len(fs.buf) {
		fs.advance(n)
	}
	f := fs.buf[fs.top : fs.top+n : fs.top+n]
	fs.top += n
	fs.hi = max(fs.hi, fs.top)
	return f
}

// advance moves to a chunk with room for n slots, allocating one twice
// the size of the last when the stack has none left.
func (fs *frameStack) advance(n int) {
	if fs.buf != nil {
		fs.leave()
		fs.cur++
	}
	for fs.cur < len(fs.chunks) && len(fs.chunks[fs.cur]) < n {
		fs.cur++ // a kept chunk too small for n stays unused this time
	}
	if fs.cur == len(fs.chunks) {
		size := frameChunk
		if k := len(fs.chunks); k > 0 {
			size = 2 * len(fs.chunks[k-1])
		}
		fs.chunks = append(fs.chunks, make([]ag.Value, max(size, n)))
		fs.used = append(fs.used, 0)
	}
	fs.enter(0)
}

// leave records the high-water mark of the chunk in use.
func (fs *frameStack) leave() { fs.used[fs.cur] = max(fs.used[fs.cur], fs.hi) }

// enter makes chunks[cur] the chunk in use, filled up to top.
func (fs *frameStack) enter(top int) {
	fs.buf, fs.top, fs.hi = fs.chunks[fs.cur], top, fs.used[fs.cur]
}

// pop drops the frames pushed since mark returned m.
func (fs *frameStack) pop(m frameMark) {
	if m.cur == fs.cur {
		fs.top = m.top
		return
	}
	fs.leave()
	fs.cur = m.cur
	fs.enter(m.top)
}

// release clears every slot filled since the last release and empties
// the stack.
func (fs *frameStack) release() {
	if fs.buf == nil {
		return
	}
	fs.leave()
	for i, u := range fs.used {
		clear(fs.chunks[i][:u])
		fs.used[i] = 0
	}
	fs.cur = 0
	fs.enter(0)
}
