package fleet

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"pag/internal/ag"
	"pag/internal/cluster"
	"pag/internal/exprlang"
	"pag/internal/tree"
)

// testWorker returns a worker with the expression grammar registered,
// plus a sealed open request for a whole-tree session (fragment 0).
func testWorker(t *testing.T) (*Worker, *ag.Grammar, []byte) {
	t.Helper()
	l := exprlang.MustNew()
	a, err := ag.Analyze(l.G)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	root, err := l.Parse(exprlang.Generate(4, 3))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	w := NewWorker()
	w.Register(l.G, a, l.TerminalAttrs)
	body := sealFrame(&openReq{
		Session: "sess-0",
		Grammar: l.G.Name,
		Frag:    0,
		Tree:    tree.Encode(root),
	})
	return w, l.G, body
}

func sealedSupply(t *testing.T, session string, seq int) []byte {
	t.Helper()
	return sealFrame(&supplyReq{Session: session, Seq: seq})
}

// TestWorkerSupplyIdempotency: a supply batch retried with the same
// sequence number answers the cached response without re-applying;
// skipping ahead answers 409; an unknown or closed session answers 404.
func TestWorkerSupplyIdempotency(t *testing.T) {
	w, _, open := testWorker(t)
	if code, resp := w.ServeRPC(pathOpen, open); code != http.StatusOK {
		t.Fatalf("open: %d %s", code, resp)
	}
	code, first := w.ServeRPC(pathSupply, sealedSupply(t, "sess-0", 1))
	if code != http.StatusOK {
		t.Fatalf("supply seq 1: %d %s", code, first)
	}
	code, again := w.ServeRPC(pathSupply, sealedSupply(t, "sess-0", 1))
	if code != http.StatusOK {
		t.Fatalf("retried supply seq 1: %d %s", code, again)
	}
	if !bytes.Equal(first, again) {
		t.Errorf("retried supply returned a different response than the original")
	}
	if code, resp := w.ServeRPC(pathSupply, sealedSupply(t, "sess-0", 5)); code != http.StatusConflict {
		t.Errorf("out-of-sync supply: got %d %s, want 409", code, resp)
	}
	if code, resp := w.ServeRPC(pathSupply, sealedSupply(t, "nope", 1)); code != http.StatusNotFound {
		t.Errorf("unknown session: got %d %s, want 404", code, resp)
	}
	closeBody := sealFrame(&closeReq{Session: "sess-0"})
	if code, resp := w.ServeRPC(pathClose, closeBody); code != http.StatusOK {
		t.Fatalf("close: %d %s", code, resp)
	}
	if code, _ := w.ServeRPC(pathSupply, sealedSupply(t, "sess-0", 2)); code != http.StatusNotFound {
		t.Errorf("supply after close: got %d, want 404", code)
	}
}

// TestWorkerReopenReplaces: reopening a session id rebuilds it instead
// of conflicting — the requeue path's contract.
func TestWorkerReopenReplaces(t *testing.T) {
	w, _, open := testWorker(t)
	for i := 0; i < 2; i++ {
		if code, resp := w.ServeRPC(pathOpen, open); code != http.StatusOK {
			t.Fatalf("open %d: %d %s", i, code, resp)
		}
	}
	if n := w.Sessions(); n != 1 {
		t.Errorf("Sessions = %d after reopening the same id, want 1", n)
	}
}

// TestWorkerReadyStates covers the three /readyz answers: ready,
// saturated, draining — and that open is refused in the refusing ones.
func TestWorkerReadyStates(t *testing.T) {
	w, g, open := testWorker(t)
	if code, body := w.ServeRPC(pathReady, nil); code != http.StatusOK || string(body) != "ready" {
		t.Fatalf("fresh worker readyz: %d %q, want 200 ready", code, body)
	}
	w.SetMaxSessions(1)
	if code, resp := w.ServeRPC(pathOpen, open); code != http.StatusOK {
		t.Fatalf("open: %d %s", code, resp)
	}
	if code, body := w.ServeRPC(pathReady, nil); code != http.StatusServiceUnavailable || string(body) != "saturated" {
		t.Errorf("full worker readyz: %d %q, want 503 saturated", code, body)
	}
	other := sealFrame(&openReq{Session: "sess-1", Grammar: g.Name, Frag: 0, Tree: nil})
	if code, _ := w.ServeRPC(pathOpen, other); code != http.StatusServiceUnavailable {
		t.Errorf("open on saturated worker: got %d, want 503", code)
	}
	closeBody := sealFrame(&closeReq{Session: "sess-0"})
	w.ServeRPC(pathClose, closeBody)
	if code, body := w.ServeRPC(pathReady, nil); code != http.StatusOK {
		t.Errorf("readyz after close: %d %q, want 200", code, body)
	}
	w.Drain()
	if code, body := w.ServeRPC(pathReady, nil); code != http.StatusServiceUnavailable || string(body) != "draining" {
		t.Errorf("draining readyz: %d %q, want 503 draining", code, body)
	}
	if code, _ := w.ServeRPC(pathOpen, open); code != http.StatusServiceUnavailable {
		t.Errorf("open on draining worker: got %d, want 503", code)
	}
}

// TestWorkerRejectsCorruptAndForeign: a mangled request answers 400
// (retryable), an unregistered grammar 422 (permanent), and a
// librarian fragment id beyond the handle-range space is contained as
// a 422 instead of a worker-killing panic.
func TestWorkerRejectsCorruptAndForeign(t *testing.T) {
	w, g, open := testWorker(t)
	mangled := append([]byte(nil), open...)
	mangled[len(mangled)/2] ^= 0x01
	if code, _ := w.ServeRPC(pathOpen, mangled); code != http.StatusBadRequest {
		t.Errorf("corrupt open: got %d, want 400", code)
	}
	if code, _ := w.ServeRPC(pathOpen, []byte("garbage")); code != http.StatusBadRequest {
		t.Errorf("garbage open: got %d, want 400", code)
	}
	foreign := sealFrame(&openReq{Session: "s", Grammar: "no-such-grammar"})
	if code, _ := w.ServeRPC(pathOpen, foreign); code != http.StatusUnprocessableEntity {
		t.Errorf("unknown grammar: got %d, want 422", code)
	}
	hostile := sealFrame(&openReq{Session: "s", Grammar: g.Name, Frag: 1 << 30})
	if code, _ := w.ServeRPC(pathOpen, hostile); code != http.StatusUnprocessableEntity {
		t.Errorf("hostile fragment id: got %d, want contained 422", code)
	}
	if code, _ := w.ServeRPC("/fleet/bogus", nil); code != http.StatusNotFound {
		t.Errorf("unknown RPC path: got %d, want 404", code)
	}
}

// TestWorkerValidatesOpen: an open request with a fragment id outside
// the handle-range space, an out-of-range
// unique-identifier index or a unique-identifier pair that is not an
// inherited base and a synthesized count of one codec is refused with
// a 422 naming the field, before anything is built — never a contained
// panic.
func TestWorkerValidatesOpen(t *testing.T) {
	w, g, _ := testWorker(t)
	sym := g.Start
	bad := len(sym.Attrs)
	var block *ag.Symbol
	for _, s := range g.Symbols {
		if s.Name == "block" {
			block = s
		}
	}
	for _, c := range []struct {
		name  string
		req   openReq
		field string
	}{
		{"negative frag", openReq{Frag: -1}, "frag"},
		{"frag beyond handle ranges", openReq{Frag: 1 << 20}, "frag"},
		{"uid symbol", openReq{UIDs: []wireUID{{Sym: len(g.Symbols)}}}, "uids[0].sym"},
		{"uid base", openReq{UIDs: []wireUID{{Sym: sym.Index, Base: bad}}}, "uids[0].base"},
		{"uid count", openReq{UIDs: []wireUID{{Sym: sym.Index, Count: -1}}}, "uids[0].count"},
		{"uid pair against the flow", openReq{UIDs: []wireUID{{Sym: block.Index, Base: exprlang.AttrValue, Count: exprlang.AttrStab}}}, "uids[0]"},
		{"uid pair of two codecs", openReq{UIDs: []wireUID{{Sym: block.Index, Base: exprlang.AttrStab, Count: exprlang.AttrValue}}}, "uids[0]"},
	} {
		c.req.Session, c.req.Grammar = "s", g.Name
		body := sealFrame(&c.req)
		code, resp := w.ServeRPC(pathOpen, body)
		if code != http.StatusUnprocessableEntity {
			t.Errorf("%s: got %d %s, want 422", c.name, code, resp)
		}
		if !bytes.Contains(resp, []byte(c.field)) || bytes.Contains(resp, []byte("worker panic")) {
			t.Errorf("%s: body %q does not name field %q (or reports a panic)", c.name, resp, c.field)
		}
	}
	if n := w.Sessions(); n != 0 {
		t.Errorf("%d sessions opened by refused requests", n)
	}
}

// TestWireSealDetectsCorruption: every byte flip in a sealed payload is
// caught, as is truncation.
func TestWireSealDetectsCorruption(t *testing.T) {
	body := sealFrame(&supplyReq{Session: "s", Seq: 3})
	var ok supplyReq
	if err := unsealFrame(body, &ok); err != nil || ok.Seq != 3 {
		t.Fatalf("clean unseal: %v %+v", err, ok)
	}
	for i := range body {
		mangled := append([]byte(nil), body...)
		mangled[i] ^= 0x20
		var out supplyReq
		if err := unsealFrame(mangled, &out); err == nil {
			t.Fatalf("flip at byte %d went undetected", i)
		}
	}
	var out supplyReq
	if err := unsealFrame(body[:len(body)-1], &out); err == nil {
		t.Error("truncated payload went undetected")
	}
	if err := unsealFrame(nil, &out); err == nil {
		t.Error("empty payload went undetected")
	}
}

// TestClientStatesAndPick: probes classify workers (ready / unready /
// unhealthy), pick routes to the least-loaded ready worker with
// deterministic ties, and state edges are counted.
func TestClientStatesAndPick(t *testing.T) {
	l := exprlang.MustNew()
	a, err := ag.Analyze(l.G)
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemTransport()
	w0, w1 := NewWorker(), NewWorker()
	w0.Register(l.G, a, l.TerminalAttrs)
	w1.Register(l.G, a, l.TerminalAttrs)
	mem.Add("w0", w0)
	mem.Add("w1", w1)
	// w2 is configured but never added: a dead host.
	c := NewClient(ClientOptions{Workers: []string{"w0", "w1", "w2"}, Transport: mem})
	c.CheckNow(context.Background())
	if workers, ready := c.counts(); workers != 3 || ready != 2 {
		t.Fatalf("counts = (%d, %d), want (3, 2)", workers, ready)
	}
	if got := c.Transitions(); got != 3 {
		t.Errorf("Transitions = %d after first probe, want 3 (one edge per worker)", got)
	}
	// Deterministic spread: least inflight, ties to first configured.
	p0 := c.pick()
	p1 := c.pick()
	if p0.addr != "w0" || p1.addr != "w1" {
		t.Fatalf("picks = %s, %s; want w0, w1", p0.addr, p1.addr)
	}
	c.release(p0)
	if p := c.pick(); p.addr != "w0" {
		t.Errorf("pick after release = %s, want w0", p.addr)
	}
	// A draining worker turns unready on the next probe and stops being
	// picked; a stable state is not a new transition.
	w1.Drain()
	c.CheckNow(context.Background())
	c.CheckNow(context.Background())
	if _, ready := c.counts(); ready != 1 {
		t.Errorf("ready = %d after drain, want 1", ready)
	}
	if got := c.Transitions(); got != 4 {
		t.Errorf("Transitions = %d, want 4", got)
	}
	// Passive failure marking routes around a worker immediately.
	var w0ref *workerRef
	for _, w := range c.workers {
		if w.addr == "w0" {
			w0ref = w
		}
	}
	c.markFailed(w0ref)
	if p := c.pick(); p != nil {
		t.Errorf("pick with no ready worker = %s, want nil", p.addr)
	}
}

// TestWorkerPriorityShipping checks priority shipping at the session
// level: a session answers as soon as its evaluation has shipped a
// priority value while work remains (More set, the priority value last
// in the batch), continues resume it, and the concatenated output
// equals what the same fragment's endpoint sends when it never yields.
func TestWorkerPriorityShipping(t *testing.T) {
	l := exprlang.MustNew()
	a, err := ag.Analyze(l.G)
	if err != nil {
		t.Fatal(err)
	}
	root, err := l.Parse(exprlang.Generate(8, 6))
	if err != nil {
		t.Fatal(err)
	}
	d, enc := tree.SplitEncode(root, tree.GranularityFor(root, 4), 4)
	if d.NumFragments() < 3 {
		t.Fatalf("want several fragments, got %d", d.NumFragments())
	}

	// The reference: fragment 0 evaluated to its blocking point in one
	// Run, with no yield.
	var plain []outMsg
	job := cluster.Job{G: l.G, A: a, Lex: l.TerminalAttrs}
	ep, err := cluster.NewEndpoint(job, enc[0], cluster.FragmentSpec{Mode: cluster.Combined}, cluster.Wire{
		Down: func(leaf *tree.Node, attr int, data []byte) {
			plain = append(plain, outMsg{Frag: leaf.RemoteID, Attr: attr, Data: data})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Run(); err != nil {
		t.Fatal(err)
	}
	if ep.Yielded() {
		t.Fatal("endpoint built without Yield yielded")
	}

	w := NewWorker()
	w.Register(l.G, a, l.TerminalAttrs)
	body := sealFrame(&openReq{Session: "s", Grammar: l.G.Name, Tree: enc[0]})
	path := pathOpen
	var yielding []evalResp
	for seq := 1; ; seq++ {
		code, raw := w.ServeRPC(path, body)
		if code != http.StatusOK {
			t.Fatalf("rpc %d: %d %s", seq, code, raw)
		}
		var resp evalResp
		if err := unsealFrame(raw, &resp); err != nil {
			t.Fatal(err)
		}
		yielding = append(yielding, resp)
		if !resp.More {
			break
		}
		path, body = pathSupply, sealedSupply(t, "s", seq)
	}
	if len(yielding) < 2 {
		t.Fatal("session never stopped early")
	}
	if extra, edges := len(yielding)-1, len(d.Children(0)); extra > edges {
		t.Errorf("%d continues for %d cut edges, want at most one per edge", extra, edges)
	}
	var msgs []outMsg
	for i, resp := range yielding {
		msgs = append(msgs, resp.Msgs...)
		if !resp.More {
			continue
		}
		if len(resp.Msgs) == 0 {
			t.Fatalf("response %d: More without a shipped value", i)
		}
		last := resp.Msgs[len(resp.Msgs)-1]
		if sym := d.Frags[last.Frag].Root.Sym; last.Up || !sym.Attrs[last.Attr].Priority {
			t.Errorf("response %d stopped after %s.%s, not after a priority value", i, sym.Name, sym.Attrs[last.Attr].Name)
		}
	}
	got := sealFrame(&evalResp{Msgs: msgs})
	want := sealFrame(&evalResp{Msgs: plain})
	if !bytes.Equal(got, want) {
		t.Error("yielding session shipped different values than the non-yielding endpoint")
	}
	if last := yielding[len(yielding)-1]; last.Done != ep.Done() || (last.Done && last.Stats != ep.Stats()) {
		t.Errorf("yielding session ended done=%v %+v, want done=%v %+v", last.Done, last.Stats, ep.Done(), ep.Stats())
	}
}

// TestWorkerRejectsMisdirectedValues: the session endpoint refuses a
// value against its attribute's flow — a synthesized value at the
// fragment root, an inherited one at a remote leaf — and a second
// value for one instance, each with a named 422, never a contained
// panic. Each leafless fragment first gets its root's synthesized
// value, which must not let a visit start before the inherited symbol
// table has arrived.
func TestWorkerRejectsMisdirectedValues(t *testing.T) {
	l := exprlang.MustNew()
	a, err := ag.Analyze(l.G)
	if err != nil {
		t.Fatal(err)
	}
	root, err := l.Parse(exprlang.Generate(8, 6))
	if err != nil {
		t.Fatal(err)
	}
	d, enc := tree.SplitEncode(root, tree.GranularityFor(root, 4), 4)
	w := NewWorker()
	w.Register(l.G, a, l.TerminalAttrs)
	open := func(frag int) evalResp {
		t.Helper()
		body := sealFrame(&openReq{Session: fmt.Sprint("s", frag), Grammar: l.G.Name, Frag: frag, Tree: enc[frag]})
		code, raw := w.ServeRPC(pathOpen, body)
		if code != http.StatusOK {
			t.Fatalf("open fragment %d: %d %s", frag, code, raw)
		}
		var resp evalResp
		if err := unsealFrame(raw, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	supply := func(frag, seq int, msgs ...wireMsg) (int, string) {
		t.Helper()
		body := sealFrame(&supplyReq{Session: fmt.Sprint("s", frag), Seq: seq, Msgs: msgs})
		code, raw := w.ServeRPC(pathSupply, body)
		return code, string(raw)
	}
	want := func(what string, code int, body string, err error) {
		t.Helper()
		if code != http.StatusUnprocessableEntity || !strings.Contains(body, err.Error()) || strings.Contains(body, "worker panic") {
			t.Errorf("%s: got %d %s, want 422 naming %q", what, code, body, err)
		}
	}

	// Fragment 0 ships the symbol table down first: run it to its
	// blocking point and keep one inherited value for a child's root.
	var stab wireMsg
	resp, seq := open(0), 0
	for {
		for _, m := range resp.Msgs {
			if !m.Up && m.Attr == exprlang.AttrStab {
				stab = wireMsg{Leaf: cluster.RootLeaf, Attr: m.Attr, Data: m.Data}
			}
		}
		if !resp.More {
			break
		}
		seq++
		code, raw := supply(0, seq)
		if code != http.StatusOK {
			t.Fatalf("continue fragment 0: %d %s", code, raw)
		}
		resp = evalResp{}
		if err := unsealFrame([]byte(raw), &resp); err != nil {
			t.Fatal(err)
		}
	}
	if stab.Data == nil {
		t.Fatal("fragment 0 shipped no symbol table")
	}
	value, err := (l.G.Start.Attrs[0].Codec).Encode(7)
	if err != nil {
		t.Fatal(err)
	}
	leafless := 0
	for _, f := range d.Frags[1:] {
		if len(d.Children(f.ID)) > 0 {
			continue
		}
		leafless++
		open(f.ID)
		code, body := supply(f.ID, 1, wireMsg{Leaf: cluster.RootLeaf, Attr: exprlang.AttrValue, Data: value})
		want(fmt.Sprintf("fragment %d: synthesized value at the root", f.ID), code, body, cluster.ErrWrongDirection)
		open(f.ID)
		code, body = supply(f.ID, 1, stab, stab)
		want(fmt.Sprintf("fragment %d: second symbol table", f.ID), code, body, cluster.ErrDuplicateValue)
	}
	if leafless == 0 {
		t.Fatal("no fragment without remote leaves")
	}
	child := d.Children(0)[0]
	code, body := supply(0, seq+1, wireMsg{Leaf: child, Attr: exprlang.AttrStab, Data: stab.Data})
	want("inherited value at a remote leaf", code, body, cluster.ErrWrongDirection)
}
