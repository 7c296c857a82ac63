package fleet

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"testing"

	"pag/internal/ag"
	"pag/internal/exprlang"
	"pag/internal/tree"
)

// TestWorkerSupplyLosingCloseRace: a supply that found its session
// before a close removed it, and gets the session's lock after the
// close recycled its storage, answers 404 and evaluates nothing.
func TestWorkerSupplyLosingCloseRace(t *testing.T) {
	w, _, open := testWorker(t)
	if code, resp := w.ServeRPC(pathOpen, open); code != http.StatusOK {
		t.Fatalf("open: %d %s", code, resp)
	}
	w.mu.Lock()
	s := w.sessions["sess-0"]
	w.mu.Unlock()
	if code, resp := w.ServeRPC(pathClose, sealFrame(&closeReq{Session: "sess-0"})); code != http.StatusOK {
		t.Fatalf("close: %d %s", code, resp)
	}
	if code, resp := s.supply(&supplyReq{Session: "sess-0", Seq: 1}); code != http.StatusNotFound {
		t.Errorf("supply that lost the race with a close: %d %s, want 404", code, resp)
	}
	if s.ep != nil || s.b != nil {
		t.Error("a closed session still holds its endpoint or builder")
	}
	if n := FreeBuilders(w); n != 1 {
		t.Errorf("the close recycled %d builders, want 1", n)
	}
}

// TestWorkerFreeListBound: the free list keeps at most GOMAXPROCS
// builders however many sessions close, refuses a builder past
// maxBuilderSlabs, and only a close recycles: sessions replaced by a
// reopen, refused at open or discarded by Reset are not kept.
func TestWorkerFreeListBound(t *testing.T) {
	w, g, open := testWorker(t)
	procs := runtime.GOMAXPROCS(0)
	if !keeps(procs-1, maxBuilderSlabs) || keeps(procs, 1) || keeps(0, maxBuilderSlabs+1) {
		t.Errorf("keeps: want a builder of up to %d slabs kept while fewer than %d are", maxBuilderSlabs, procs)
	}
	w.ServeRPC(pathOpen, open)
	w.ServeRPC(pathOpen, open) // replaces sess-0
	w.ServeRPC(pathOpen, sealFrame(&openReq{Session: "bad", Grammar: g.Name, Tree: []byte{9}}))
	w.Reset()
	if n := FreeBuilders(w); n != 0 {
		t.Errorf("%d builders kept with no session closed", n)
	}
	var req openReq
	if err := unsealFrame(open, &req); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < procs+3; i++ {
		req.Session = fmt.Sprintf("s%d", i)
		if code, resp := w.ServeRPC(pathOpen, sealFrame(&req)); code != http.StatusOK {
			t.Fatalf("open %s: %d %s", req.Session, code, resp)
		}
	}
	for i := 0; i < procs+3; i++ {
		w.ServeRPC(pathClose, sealFrame(&closeReq{Session: fmt.Sprintf("s%d", i)}))
	}
	if n := FreeBuilders(w); n != procs {
		t.Errorf("free list holds %d builders after %d closes, want GOMAXPROCS = %d", n, procs+3, procs)
	}
}

// TestWorkerRecycleStress runs opens, supplies, closes and reopens of
// one session id from eight goroutines at once on one worker (run it
// with -race; one id makes supplies queue behind each other and behind
// closes): every answer must be a success, an unknown session or an
// out-of-sync batch, and afterwards every fragment must evaluate on
// the stressed worker's recycled storage to the same bytes as on a
// fresh worker.
func TestWorkerRecycleStress(t *testing.T) {
	l := exprlang.MustNew()
	a, err := ag.Analyze(l.G)
	if err != nil {
		t.Fatal(err)
	}
	var opens [][]byte // sealed opens of every fragment of two programs
	for _, src := range []string{exprlang.Generate(8, 6), exprlang.Generate(6, 4)} {
		root, err := l.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		_, enc := tree.SplitEncode(root, tree.GranularityFor(root, 4), 4)
		for i, e := range enc {
			opens = append(opens, sealFrame(&openReq{Session: "x", Grammar: l.G.Name, Frag: i, Tree: e}))
		}
	}
	openAs := func(id string, k int) []byte {
		var req openReq
		if err := unsealFrame(opens[k], &req); err != nil {
			t.Fatal(err)
		}
		req.Session = id
		return sealFrame(&req)
	}
	newWorker := func() *Worker {
		w := NewWorker()
		w.Register(l.G, a, l.TerminalAttrs)
		return w
	}

	w := newWorker()
	const goroutines, ops, ids = 8, 1000, 1
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < ops; i++ {
				id := fmt.Sprintf("s%d", rng.Intn(ids))
				var path string
				var body []byte
				switch op := rng.Intn(4); op {
				case 0, 1:
					path, body = pathOpen, openAs(id, rng.Intn(len(opens)))
				case 2:
					path, body = pathSupply, sealFrame(&supplyReq{Session: id, Seq: 1 + rng.Intn(3)})
				default:
					path, body = pathClose, sealFrame(&closeReq{Session: id})
				}
				switch code, resp := w.ServeRPC(path, body); code {
				case http.StatusOK, http.StatusNotFound, http.StatusConflict:
				default:
					t.Errorf("%s %s: %d %s", path, id, code, resp)
					return
				}
			}
		}(int64(g + 1))
	}
	wg.Wait()
	for i := 0; i < ids; i++ {
		w.ServeRPC(pathClose, sealFrame(&closeReq{Session: fmt.Sprintf("s%d", i)}))
	}
	if FreeBuilders(w) == 0 {
		t.Fatal("the stress recycled no builder")
	}

	// run evaluates fragment k to its blocking point: the open, then
	// continues while the session stops early.
	run := func(w *Worker, k int) [][]byte {
		var out [][]byte
		code, resp := w.ServeRPC(pathOpen, openAs("final", k))
		for seq := 1; ; seq++ {
			if code != http.StatusOK {
				t.Fatalf("fragment %d rpc %d: %d %s", k, seq, code, resp)
			}
			out = append(out, resp)
			var r evalResp
			if err := unsealFrame(resp, &r); err != nil {
				t.Fatal(err)
			}
			if !r.More {
				break
			}
			code, resp = w.ServeRPC(pathSupply, sealFrame(&supplyReq{Session: "final", Seq: seq}))
		}
		w.ServeRPC(pathClose, sealFrame(&closeReq{Session: "final"}))
		return out
	}
	for k := range opens {
		got, want := run(w, k), run(newWorker(), k)
		if !slices.EqualFunc(got, want, bytes.Equal) {
			t.Errorf("fragment %d: the stressed worker answered differently from a fresh one", k)
		}
	}
}
