package eval

import (
	"fmt"
	"sync"

	"pag/internal/ag"
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
// attribute lifetime analysis). A production keeps its nonterminal
// children's instances in a frame: one of a single visit on a stack
// borrowed for the outermost visit and returned, cleared, when it
// ends; one of several visits on a second stack, held from the first
// visit to the last, which goes back once no frame on it is held.
// Terminals keep their scanner values in their node slots. The visited
// node's own instances are the caller's: the combined evaluator keeps a
// static child's in its graph rows, and Visit uses the node's slots.
type Static struct {
	a      *ag.Analysis
	hooks  Hooks
	stats  Stats
	argbuf []ag.Value // scratch for rule arguments; rules must not retain it

	// held is the stack of the frames of multi-visit productions, from
	// a node's first visit to its last; nil while it holds none.
	held *frameStack
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
// whose instances live in its node slots (given to n if it has none).
// The inherited attributes of n's phases 1..v must already be set.
// After Visit returns, the synthesized attributes of phase v are set.
func (s *Static) Visit(n *tree.Node, v int) {
	if len(n.Attrs) < len(n.Sym.Attrs) {
		n.Attrs = make([]ag.Value, len(n.Sym.Attrs))
	}
	s.visitOwn(n, n.Attrs, v)
}

// visitOwn runs visit v of n with n's own instances in own.
func (s *Static) visitOwn(n *tree.Node, own []ag.Value, v int) {
	stk := borrowFrames()
	s.visit(n, own, v, stk)
	returnFrames(stk)
}

// visit runs visit v of n's production, with n's own instances in own
// and the frames of single-visit productions on stk.
func (s *Static) visit(n *tree.Node, own []ag.Value, v int, stk *frameStack) {
	plan := s.a.Compiled(n.Prod)
	var frame []ag.Value
	mark := stk.mark()
	multi := len(plan.Segments) > 1
	switch {
	case plan.Frame == 0:
	case multi:
		frame = s.heldFrame(n, plan, v)
	default:
		frame = stk.push(plan.Frame)
	}
	seg := plan.Segments[v-1]
	for i := range seg {
		op := &seg[i]
		if op.Rule != nil {
			s.evalOp(n, own, frame, op)
			continue
		}
		s.hooks.charge(CostVisit)
		s.visit(n.Children[op.Child-1], frame[op.Frame:op.FrameEnd:op.FrameEnd], int(op.Visit), stk)
	}
	switch {
	case plan.Frame == 0:
	case !multi:
		stk.pop(mark)
	case v == len(plan.Segments):
		s.dropHeld(n)
	}
}

// heldFrame returns the frame of n, a node of multi-visit production
// plan.Prod, for its visit v: pushed at the first visit and held until
// the last has run (dropHeld). Frames on a stack never move.
func (s *Static) heldFrame(n *tree.Node, plan *ag.CompiledPlan, v int) []ag.Value {
	if v > 1 {
		return s.held.of[n]
	}
	if s.held == nil {
		s.held = borrowFrames()
		if s.held.of == nil {
			s.held.of = make(map[*tree.Node][]ag.Value)
		}
	}
	frame := s.held.push(plan.Frame)
	s.held.of[n] = frame
	return frame
}

// dropHeld lets n's frame go after its last visit, and returns the
// stack, cleared, once it holds no frame.
func (s *Static) dropHeld(n *tree.Node) {
	delete(s.held.of, n)
	if len(s.held.of) == 0 {
		returnFrames(s.held)
		s.held = nil
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
	// A rule defines the node's synthesized or a nonterminal child's
	// inherited attributes, never a terminal's.
	if t := &op.Target; t.Where == ag.InOwn {
		own[t.Index] = val
	} else {
		frame[t.Index] = val
	}
	if s.hooks.Charge != nil {
		s.hooks.Charge(rule.SimCost(args) + CostStaticOp)
	}
	s.stats.StaticEvals++
}

// Stats returns evaluation statistics.
func (s *Static) Stats() Stats { return s.stats }

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

	// of maps each node whose frame a stack of held frames holds to
	// it (Static.heldFrame); the map is kept, empty, with the stack.
	of map[*tree.Node][]ag.Value
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
