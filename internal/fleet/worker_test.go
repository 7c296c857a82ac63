package fleet

import (
	"bytes"
	"context"
	"net/http"
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
	body, err := sealJSON(openReq{
		Session: "sess-0",
		Grammar: l.G.Name,
		Frag:    0,
		Mode:    int(cluster.Combined),
		Tree:    tree.Encode(root),
	})
	if err != nil {
		t.Fatalf("sealJSON: %v", err)
	}
	return w, l.G, body
}

func sealedSupply(t *testing.T, session string, seq int) []byte {
	t.Helper()
	body, err := sealJSON(supplyReq{Session: session, Seq: seq})
	if err != nil {
		t.Fatalf("sealJSON: %v", err)
	}
	return body
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
	closeBody, err := sealJSON(closeReq{Session: "sess-0"})
	if err != nil {
		t.Fatal(err)
	}
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
	other, err := sealJSON(openReq{Session: "sess-1", Grammar: g.Name, Frag: 0, Tree: nil})
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := w.ServeRPC(pathOpen, other); code != http.StatusServiceUnavailable {
		t.Errorf("open on saturated worker: got %d, want 503", code)
	}
	closeBody, _ := sealJSON(closeReq{Session: "sess-0"})
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
	foreign, err := sealJSON(openReq{Session: "s", Grammar: "no-such-grammar"})
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := w.ServeRPC(pathOpen, foreign); code != http.StatusUnprocessableEntity {
		t.Errorf("unknown grammar: got %d, want 422", code)
	}
	hostile, err := sealJSON(openReq{Session: "s", Grammar: g.Name, Frag: 1 << 30, Librarian: true})
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := w.ServeRPC(pathOpen, hostile); code != http.StatusUnprocessableEntity {
		t.Errorf("hostile fragment id: got %d, want contained 422", code)
	}
	if code, _ := w.ServeRPC("/fleet/bogus", nil); code != http.StatusNotFound {
		t.Errorf("unknown RPC path: got %d, want 404", code)
	}
}

// TestWireSealDetectsCorruption: every byte flip in a sealed payload is
// caught, as is truncation.
func TestWireSealDetectsCorruption(t *testing.T) {
	body, err := sealJSON(supplyReq{Session: "s", Seq: 3})
	if err != nil {
		t.Fatal(err)
	}
	var ok supplyReq
	if err := unsealJSON(body, &ok); err != nil || ok.Seq != 3 {
		t.Fatalf("clean unseal: %v %+v", err, ok)
	}
	for i := range body {
		mangled := append([]byte(nil), body...)
		mangled[i] ^= 0x20
		var out supplyReq
		if err := unsealJSON(mangled, &out); err == nil {
			t.Fatalf("flip at byte %d went undetected", i)
		}
	}
	var out supplyReq
	if err := unsealJSON(body[:len(body)-1], &out); err == nil {
		t.Error("truncated payload went undetected")
	}
	if err := unsealJSON(nil, &out); err == nil {
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
// level: a session opened with Yield answers as soon as its evaluation
// has shipped a priority value while work remains (More set, the
// priority value last in the batch), continues resume it, and the
// concatenated output equals what a non-yielding session sends in one
// response. A session opened without Yield never sets More.
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
	d, enc := tree.SplitEncode(root, tree.GranularityFor(root, 4), 4, tree.PlanSize, nil)
	if d.NumFragments() < 3 {
		t.Fatalf("want several fragments, got %d", d.NumFragments())
	}
	run := func(yield bool) []evalResp {
		w := NewWorker()
		w.Register(l.G, a, l.TerminalAttrs)
		body, err := sealJSON(openReq{Session: "s", Grammar: l.G.Name, Mode: int(cluster.Combined), Tree: enc[0], Yield: yield})
		if err != nil {
			t.Fatal(err)
		}
		path := pathOpen
		var resps []evalResp
		for seq := 1; ; seq++ {
			code, raw := w.ServeRPC(path, body)
			if code != http.StatusOK {
				t.Fatalf("yield=%v rpc %d: %d %s", yield, seq, code, raw)
			}
			var resp evalResp
			if err := unsealJSON(raw, &resp); err != nil {
				t.Fatal(err)
			}
			resps = append(resps, resp)
			if !resp.More {
				return resps
			}
			path, body = pathSupply, sealedSupply(t, "s", seq)
		}
	}
	plain, yielding := run(false), run(true)
	if len(plain) != 1 {
		t.Fatalf("session without Yield answered More (%d responses)", len(plain))
	}
	if len(yielding) < 2 {
		t.Fatal("yielding session never stopped early")
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
	got, _ := sealJSON(msgs)
	want, _ := sealJSON(plain[0].Msgs)
	if !bytes.Equal(got, want) {
		t.Error("yielding session shipped different values than the non-yielding one")
	}
	if last := yielding[len(yielding)-1]; last.Done != plain[0].Done || last.Stats != plain[0].Stats {
		t.Errorf("yielding session ended done=%v %+v, want done=%v %+v", last.Done, last.Stats, plain[0].Done, plain[0].Stats)
	}
}
