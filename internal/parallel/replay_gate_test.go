package parallel

import (
	"testing"

	"pag/internal/exprlang"
	"pag/internal/rope"
	"pag/internal/tree"
)

// gateRig is one wait-mode candidate, fragment 0, with three child
// fragments 1..3, wired into a job runtime by hand. Its recording says
// the children's `value` attributes arrived in order 1, 2, 3 and that
// fragment 0 shipped `stab` to child w+1 after w of them (wave w). The
// children never run: they are marked queued, so whatever the
// candidate posts stays in their inboxes for the test to read.
type gateRig struct {
	r      *rt
	cand   *frag
	kids   []*frag
	leaves []*tree.Node
	value  int
}

// inValue is the recorded value of child k's `value` attribute.
func inValue(k int) int { return 10 * k }

func newGateRig(t *testing.T) *gateRig {
	t.Helper()
	l := exprlang.MustNew()
	block := l.Block
	g := &gateRig{
		r:     &rt{lib: rope.NewLibrarian(), leafOf: map[int]*tree.Node{}},
		value: block.AttrIndex("value"),
	}
	stab := block.AttrIndex("stab")
	g.cand = &frag{r: g.r, id: 0, parent: -1, root: &tree.Node{Sym: l.MainExpr}, queued: true}
	g.r.frags = []*frag{g.cand}
	rec := &fragRecord{inbound: map[inKey]valFP{}}
	for k := 1; k <= 3; k++ {
		leaf := &tree.Node{Sym: block, Remote: true, RemoteID: k}
		g.leaves = append(g.leaves, leaf)
		g.r.leafOf[k] = leaf
		kid := &frag{r: g.r, id: k, parent: 0, root: &tree.Node{Sym: block}, queued: true}
		g.kids = append(g.kids, kid)
		g.r.frags = append(g.r.frags, kid)

		key := inKey{leaf: k, attr: g.value}
		fp, err := g.r.fingerprint(block, g.value, inValue(k))
		if err != nil {
			t.Fatal(err)
		}
		rec.inOrder = append(rec.inOrder, key)
		rec.inbound[key] = fp
		rec.msgs = append(rec.msgs, cachedMsg{target: k, toRoot: true, attr: stab, wave: k - 1, val: k})
	}
	g.cand.cand = rec
	return g
}

// deliver puts child k's `value` into the candidate's mailbox and steps
// it once, returning stepWait's verdict.
func (g *gateRig) deliver(k, v int) bool {
	g.cand.mu.Lock()
	g.cand.inbox = append(g.cand.inbox, message{node: g.leaves[k-1], attr: g.value, val: v})
	g.cand.mu.Unlock()
	return g.r.stepWait(g.cand)
}

// posted reports which children have received their `stab` message.
func (g *gateRig) posted() [3]bool {
	var got [3]bool
	for i, kid := range g.kids {
		kid.mu.Lock()
		got[i] = len(kid.inbox) > 0
		kid.mu.Unlock()
	}
	return got
}

// TestIncrementalReplayGate drives a wait-mode candidate through the
// wave gate: a recorded message of wave w is posted exactly when the
// first w recorded inbound instances have matched, in recorded order —
// not when any w inputs have arrived — and the candidate commits once
// all of them have.
func TestIncrementalReplayGate(t *testing.T) {
	g := newGateRig(t)
	if !g.r.stepWait(g.cand) {
		t.Fatal("an empty mailbox demoted the candidate")
	}
	if got := g.posted(); got != [3]bool{true, false, false} {
		t.Fatalf("before any input: posted %v, want only the wave-0 message", got)
	}
	steps := []struct {
		child int
		want  [3]bool
	}{
		// inOrder[:1] has matched: wave 1 is proven, wave 2 is not.
		{1, [3]bool{true, true, false}},
		// inOrder[2] arriving early proves nothing while inOrder[1] is
		// missing.
		{3, [3]bool{true, true, false}},
		// inOrder[:2] has matched, and with it the whole inbound set.
		{2, [3]bool{true, true, true}},
	}
	for _, s := range steps {
		if !g.deliver(s.child, inValue(s.child)) {
			t.Fatalf("child %d's recorded value demoted the candidate", s.child)
		}
		if got := g.posted(); got != s.want {
			t.Fatalf("after child %d: posted %v, want %v", s.child, got, s.want)
		}
	}
	if !g.cand.done || g.cand.cand != nil || g.r.partial.Load() != 1 || g.r.demotedCnt.Load() != 0 {
		t.Fatalf("full match did not commit: done=%v partial=%d demoted=%d",
			g.cand.done, g.r.partial.Load(), g.r.demotedCnt.Load())
	}
}

// TestIncrementalReplayGateMismatch checks that a value contradicting
// the recording demotes the candidate at once, with nothing beyond the
// wave-0 message posted and the contradicting value held for live
// evaluation.
func TestIncrementalReplayGateMismatch(t *testing.T) {
	g := newGateRig(t)
	g.r.stepWait(g.cand)
	if g.deliver(1, inValue(1)+1) {
		t.Fatal("a mismatching value did not demote the candidate")
	}
	if g.cand.cand != nil || g.r.demotedCnt.Load() != 1 || g.r.partial.Load() != 0 {
		t.Fatalf("demotion not filed: cand=%v demoted=%d partial=%d",
			g.cand.cand != nil, g.r.demotedCnt.Load(), g.r.partial.Load())
	}
	if got := g.posted(); got != [3]bool{true, false, false} {
		t.Fatalf("after the mismatch: posted %v, want only the wave-0 message", got)
	}
	if len(g.cand.held) != 1 || g.cand.held[0].val != inValue(1)+1 {
		t.Fatalf("held %v, want the mismatching message", g.cand.held)
	}
}
