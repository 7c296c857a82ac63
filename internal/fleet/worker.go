package fleet

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"sync"

	"pag/internal/ag"
	"pag/internal/aglint"
	"pag/internal/cluster"
	"pag/internal/rope"
	"pag/internal/tree"
)

// Worker evaluates fragments on behalf of a remote coordinator: the
// evaluator half of the paper's cluster machine, reachable over RPC
// (`pagd -worker`). Each open RPC creates a session holding one
// fragment's evaluator; supply RPCs feed it attribute values computed
// by sibling fragments and drain whatever it produced in return. The
// worker keeps no librarian — it allocates handles from the fragment's
// private deterministic range and ships the text back, so a worker
// crash loses nothing the coordinator cannot reproduce elsewhere.
//
// Sessions are idempotent at both ends: reopening an existing session
// id replaces it (rebuilding state from the journaled supply batches),
// and a supply batch the session has already applied returns the
// cached response instead of applying twice. Between them, the
// coordinator may retry any RPC whose response it lost without
// double-evaluating anything.
//
// Session storage is recycled (paper §4.3 inside a session: bump
// allocation, nothing freed). An open decodes its subtree into a tree
// builder from the worker's free list; a close clears the builder's
// slabs and returns it, so a steady-state open allocates no slab. The
// free list holds at most GOMAXPROCS builders, and a builder that
// grew past maxBuilderSlabs slabs is dropped instead of kept.
//
// A Worker is safe for concurrent use.
type Worker struct {
	mu          sync.Mutex
	grammars    map[string]*langEntry
	sessions    map[string]*session
	draining    bool
	maxSessions int
	free        []*tree.Builder // cleared builders, at most GOMAXPROCS

	// closedEarly holds the ids of sessions closed while unknown here,
	// at most maxEarlyCloses of them, oldest first in closedOrder. A
	// coordinator closes a session only once done with it, so such a
	// close overtook its open (one whose caller gave up on it): the
	// next open of the id finishing here is not registered.
	closedEarly map[string]bool
	closedOrder []string
}

// maxEarlyCloses bounds how many closes of unknown sessions a worker
// remembers.
const maxEarlyCloses = 4 * DefaultMaxSessions

// maxBuilderSlabs bounds the storage a recycled builder keeps, in
// 1024-element slabs of nodes, leaf attribute slots and child
// pointers (interior nodes carry no slots). The whole course-sized
// program (24k nodes) fills 55 slabs and a width-2 fragment of it at
// most 32, so only a builder that decoded a subtree several times the
// course program's size is dropped.
const maxBuilderSlabs = 256

// DefaultMaxSessions bounds concurrently open sessions per worker;
// beyond it the worker answers 503 (and reports unready), shedding
// load onto the rest of the fleet instead of queueing unboundedly.
const DefaultMaxSessions = 256

// langEntry is one registered grammar.
type langEntry struct {
	g   *ag.Grammar
	a   *ag.Analysis
	lex tree.TerminalAttrs
}

// NewWorker returns an empty worker; register grammars before serving.
func NewWorker() *Worker {
	return &Worker{
		grammars:    make(map[string]*langEntry),
		sessions:    make(map[string]*session),
		maxSessions: DefaultMaxSessions,
		closedEarly: make(map[string]bool),
	}
}

// Register makes grammar g (by its Name) servable. a is g's OAG
// analysis, which the combined evaluator of every session needs: a
// grammar registered without one is refused at every open (422). lex
// recomputes terminal attributes after tree transfer.
func (w *Worker) Register(g *ag.Grammar, a *ag.Analysis, lex tree.TerminalAttrs) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.grammars[g.Name] = &langEntry{g: g, a: a, lex: lex}
}

// RegisterChecked is Register behind a diagnostics gate: the grammar
// runs through the static diagnostics engine first, and one with
// error-severity findings is refused with an error listing every such
// finding. A misconfigured worker thereby fails loudly at startup
// instead of serving evaluations from a grammar the coordinator's
// analysis would reject.
func (w *Worker) RegisterChecked(g *ag.Grammar, a *ag.Analysis, lex tree.TerminalAttrs) error {
	report := aglint.Check(g)
	if report.HasErrors() {
		var b strings.Builder
		fmt.Fprintf(&b, "fleet: refusing to register grammar %s: %s", g.Name, report.Summary())
		for i := range report.Diagnostics {
			if d := &report.Diagnostics[i]; d.Severity == aglint.Error {
				b.WriteString("\n  " + d.String())
			}
		}
		return errors.New(b.String())
	}
	w.Register(g, a, lex)
	return nil
}

// Drain flips the worker to draining: /readyz answers 503 and new
// sessions are refused, while open sessions keep being served — the
// graceful half of shutdown, so coordinators route around this worker
// before its listener closes.
func (w *Worker) Drain() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.draining = true
}

// Reset discards every session, as a crash would; their storage is
// left to the garbage collector, not recycled. Tests use it (with
// FaultConfig.CrashAfter) to simulate worker death without a process.
func (w *Worker) Reset() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.sessions = make(map[string]*session)
	w.closedEarly, w.closedOrder = make(map[string]bool), nil
}

// Sessions reports how many sessions are open.
func (w *Worker) Sessions() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.sessions)
}

// readyState decides the /readyz answer: 503 while draining or
// saturated, 200 otherwise.
func (w *Worker) readyState() (int, string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	switch {
	case w.draining:
		return http.StatusServiceUnavailable, "draining"
	case len(w.sessions) >= w.maxSessions:
		return http.StatusServiceUnavailable, "saturated"
	default:
		return http.StatusOK, "ready"
	}
}

// ServeRPC dispatches one fleet RPC and returns an HTTP-style status
// code and response body. The HTTP adapter (Routes) and the in-memory
// transport both call through here, so fault injection and tests
// exercise exactly the code real traffic runs. Success bodies on the
// session paths are sealed; error bodies are plain text.
func (w *Worker) ServeRPC(path string, body []byte) (code int, resp []byte) {
	// A malformed request must never take the worker down with it:
	// anything a decoded-but-hostile payload manages to panic
	// (out-of-range handle bases above all) becomes that request's 422.
	defer func() {
		if p := recover(); p != nil {
			code, resp = http.StatusUnprocessableEntity, []byte(fmt.Sprintf("fleet: worker panic: %v", p))
		}
	}()
	switch path {
	case pathHealth:
		return http.StatusOK, []byte("ok")
	case pathReady:
		c, s := w.readyState()
		return c, []byte(s)
	case pathOpen:
		return w.handleOpen(body)
	case pathSupply:
		return w.handleSupply(body)
	case pathClose:
		return w.handleClose(body)
	default:
		return http.StatusNotFound, []byte("fleet: unknown RPC " + path)
	}
}

// Routes returns the worker's HTTP surface: the session RPCs plus the
// health endpoints fleet clients probe.
func (w *Worker) Routes() http.Handler {
	mux := http.NewServeMux()
	rpc := func(path string) http.HandlerFunc {
		return func(rw http.ResponseWriter, r *http.Request) {
			body, err := io.ReadAll(http.MaxBytesReader(rw, r.Body, 64<<20))
			if err != nil {
				http.Error(rw, err.Error(), http.StatusBadRequest)
				return
			}
			code, resp := w.ServeRPC(path, body)
			rw.Header().Set("Content-Type", "application/octet-stream")
			rw.WriteHeader(code)
			rw.Write(resp) //nolint:errcheck // a dead coordinator retries
		}
	}
	mux.HandleFunc("POST "+pathOpen, rpc(pathOpen))
	mux.HandleFunc("POST "+pathSupply, rpc(pathSupply))
	mux.HandleFunc("POST "+pathClose, rpc(pathClose))
	mux.HandleFunc("GET "+pathHealth, func(rw http.ResponseWriter, r *http.Request) {
		code, resp := w.ServeRPC(pathHealth, nil)
		rw.WriteHeader(code)
		rw.Write(resp) //nolint:errcheck
	})
	mux.HandleFunc("GET "+pathReady, func(rw http.ResponseWriter, r *http.Request) {
		code, resp := w.ServeRPC(pathReady, nil)
		rw.WriteHeader(code)
		rw.Write(resp) //nolint:errcheck
	})
	return mux
}

// session is one fragment's evaluation state on this worker: a
// fragment endpoint whose sinks append to the next response (the
// coordinator does the routing).
type session struct {
	mu sync.Mutex

	id string
	ep *cluster.Endpoint
	b  *tree.Builder // the storage ep's subtree was decoded into

	// closed is set, under mu, by the close that recycles b: a supply
	// that waited for mu behind it answers 404 and evaluates nothing.
	closed bool

	// pending holds the inbound values of the RPCs so far that the
	// endpoint has not yet been fed: a session yields after each
	// priority value, possibly in the middle of a batch.
	pending []wireMsg

	// Output accumulated since the last drained response; the sinks
	// append here while the endpoint evaluates.
	out    []outMsg
	stores []storeOut
	roots  []rootOut

	// lastSeq/lastResp make supply idempotent: a batch the session has
	// already applied answers with the cached sealed response.
	lastSeq  int
	lastResp []byte
}

func (w *Worker) handleOpen(body []byte) (int, []byte) {
	var req openReq
	if err := unsealFrame(body, &req); err != nil {
		return http.StatusBadRequest, []byte(err.Error())
	}
	w.mu.Lock()
	entry := w.grammars[req.Grammar]
	_, replacing := w.sessions[req.Session]
	refuse := w.draining || (!replacing && len(w.sessions) >= w.maxSessions)
	w.mu.Unlock()
	if entry == nil {
		return http.StatusUnprocessableEntity, []byte(fmt.Sprintf("fleet: grammar %q not registered on this worker", req.Grammar))
	}
	if refuse {
		return http.StatusServiceUnavailable, []byte("fleet: worker not accepting sessions (draining or saturated)")
	}
	job, err := req.validate(entry)
	if err != nil {
		return http.StatusUnprocessableEntity, []byte(err.Error())
	}

	// A session that fails to open, is refused below or is later
	// replaced by a reopen or discarded by Reset leaves its builder to
	// the garbage collector: only handleClose and an open closed before
	// it finished recycle one.
	s := &session{id: req.Session, b: w.builder()}
	s.ep, err = cluster.NewEndpoint(job, req.Tree, cluster.FragmentSpec{
		ID:        req.Frag,
		UIDBase:   req.UIDBase,
		Builder:   s.b,
		Mode:      cluster.Combined,
		UIDPreset: true,
		Yield:     true,
	}, cluster.Wire{
		Librarian: cluster.CodeAttr(job.G) >= 0,
		Store: func(h int32, text string) {
			s.stores = append(s.stores, storeOut{Handle: h, Text: text})
		},
		Down: func(leaf *tree.Node, attr int, data []byte) {
			s.out = append(s.out, outMsg{Frag: leaf.RemoteID, Attr: attr, Data: data})
		},
		Up: func(attr int, data []byte) {
			s.out = append(s.out, outMsg{Up: true, Frag: req.Frag, Attr: attr, Data: data})
		},
		Result: func(attr int, data []byte, ship bool) {
			s.roots = append(s.roots, rootOut{Attr: attr, Data: data, Ship: ship})
		},
	})
	if err != nil {
		return http.StatusUnprocessableEntity, []byte(fmt.Sprintf("fleet: %v", err))
	}

	// Replay the journal of a requeued fragment: the batches a previous
	// incarnation of this session already consumed, in order. Purity
	// makes the replayed outputs identical to what the lost worker
	// computed and shipped before dying; where that incarnation yielded
	// does not matter, since yielding never reorders the evaluation.
	for _, batch := range req.Journal {
		s.pending = append(s.pending, batch...)
	}
	if err := s.advance(); err != nil {
		return http.StatusUnprocessableEntity, []byte(err.Error())
	}
	s.lastSeq = len(req.Journal)
	code, resp := s.drain()
	if code != http.StatusOK {
		return code, resp
	}
	s.lastResp = resp

	w.mu.Lock()
	// An open whose close came first is not registered: its caller gave
	// up on it (a deadline passed, or its job was cancelled) and has
	// moved on, so nobody would ever close the session again.
	if w.closedEarly[req.Session] {
		delete(w.closedEarly, req.Session)
		w.mu.Unlock()
		w.recycle(s)
		return http.StatusNotFound, []byte(fmt.Sprintf("fleet: session %s closed while it opened", req.Session))
	}
	// Re-check admission under the lock: a concurrent open may have
	// filled the worker while this one evaluated.
	if w.draining || (w.sessions[req.Session] == nil && len(w.sessions) >= w.maxSessions) {
		w.mu.Unlock()
		return http.StatusServiceUnavailable, []byte("fleet: worker not accepting sessions (draining or saturated)")
	}
	w.sessions[req.Session] = s
	w.mu.Unlock()
	return http.StatusOK, resp
}

// validate checks an open request against the registered grammar
// before anything is built, so a malformed or hostile request is
// refused with a 422 naming the offending field instead of panicking
// mid-construction. It returns the job the fragment evaluator is built
// for (the unique-identifier pairs resolved to symbols).
func (req *openReq) validate(entry *langEntry) (cluster.Job, error) {
	if entry.a == nil {
		return cluster.Job{}, fmt.Errorf("fleet: grammar %q registered without an analysis; combined mode unavailable", req.Grammar)
	}
	if req.Frag < 0 || req.Frag >= rope.MaxHandleRanges {
		return cluster.Job{}, fmt.Errorf("fleet: frag: fragment id %d out of range [0, %d)", req.Frag, rope.MaxHandleRanges)
	}
	job := cluster.Job{G: entry.g, A: entry.a, Lex: entry.lex, UIDs: make([]cluster.UIDPair, len(req.UIDs))}
	for i, k := range req.UIDs {
		if k.Sym < 0 || k.Sym >= len(entry.g.Symbols) {
			return cluster.Job{}, fmt.Errorf("fleet: uids[%d].sym: symbol index %d out of range", i, k.Sym)
		}
		sym := entry.g.Symbols[k.Sym]
		if k.Base < 0 || k.Base >= len(sym.Attrs) {
			return cluster.Job{}, fmt.Errorf("fleet: uids[%d].base: attribute index %d out of range for %s", i, k.Base, sym.Name)
		}
		if k.Count < 0 || k.Count >= len(sym.Attrs) {
			return cluster.Job{}, fmt.Errorf("fleet: uids[%d].count: attribute index %d out of range for %s", i, k.Count, sym.Name)
		}
		// The presets supply counters to both attributes: a pair is an
		// inherited base and a synthesized count of one value type, so
		// a pair naming any other attributes would feed them a counter.
		base, count := sym.Attrs[k.Base], sym.Attrs[k.Count]
		if base.Kind != ag.Inherited || count.Kind != ag.Synthesized || base.Codec == nil ||
			reflect.TypeOf(base.Codec) != reflect.TypeOf(count.Codec) {
			return cluster.Job{}, fmt.Errorf("fleet: uids[%d]: %s.%s and %s.%s are not an inherited base and a synthesized count of one codec",
				i, sym.Name, base.Name, sym.Name, count.Name)
		}
		job.UIDs[i] = cluster.UIDPair{Sym: sym, Base: k.Base, Count: k.Count}
	}
	return job, nil
}

// advance runs the endpoint, feeding it the pending inbound values
// one at a time and running it after each, until it blocks. It stops
// early — priority shipping (§4.3) — as soon as the evaluator yields
// after a priority value with work left, so the value leaves in this
// response instead of after the rest of the fragment's ready work; the
// response then carries More and the coordinator answers with a
// continue (an empty supply batch), which resumes exactly here.
func (s *session) advance() error {
	for {
		if err := s.ep.Run(); err != nil {
			return fmt.Errorf("fleet: session %s: %w", s.id, err)
		}
		if s.ep.Yielded() || len(s.pending) == 0 {
			return nil
		}
		m := s.pending[0]
		s.pending = s.pending[1:]
		if err := s.ep.Supply(m.Leaf, m.Attr, m.Data); err != nil {
			return fmt.Errorf("fleet: session %s: %w", s.id, err)
		}
	}
}

// more reports whether the session stopped before its blocking point.
func (s *session) more() bool { return s.ep.Yielded() || len(s.pending) > 0 }

// drain moves the accumulated output into a sealed response.
func (s *session) drain() (int, []byte) {
	resp := evalResp{
		Done:   s.ep.Done(),
		More:   s.more(),
		Msgs:   s.out,
		Stores: s.stores,
		Roots:  s.roots,
	}
	if resp.Done {
		resp.Stats = s.ep.Stats()
	}
	s.out, s.stores, s.roots = nil, nil, nil
	return http.StatusOK, sealFrame(&resp)
}

func (w *Worker) handleSupply(body []byte) (int, []byte) {
	var req supplyReq
	if err := unsealFrame(body, &req); err != nil {
		return http.StatusBadRequest, []byte(err.Error())
	}
	w.mu.Lock()
	s := w.sessions[req.Session]
	w.mu.Unlock()
	if s == nil {
		return http.StatusNotFound, []byte(fmt.Sprintf("fleet: unknown session %s", req.Session))
	}
	return s.supply(&req)
}

// supply applies one batch to s. A close may have won the race for
// s.mu since the lookup: the session's storage is then recycled and
// the batch is answered like one for an unknown session.
func (s *session) supply(req *supplyReq) (int, []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return http.StatusNotFound, []byte(fmt.Sprintf("fleet: unknown session %s", req.Session))
	case req.Seq == s.lastSeq:
		// Retried batch (the coordinator lost our response): it is
		// already applied, answer what we answered then.
		return http.StatusOK, s.lastResp
	case req.Seq != s.lastSeq+1:
		// The session and the coordinator disagree about history —
		// unrecoverable here; 409 tells the coordinator to requeue.
		return http.StatusConflict, []byte(fmt.Sprintf("fleet: session %s out of sync: got seq %d, want %d", req.Session, req.Seq, s.lastSeq+1))
	}
	s.pending = append(s.pending, req.Msgs...)
	if err := s.advance(); err != nil {
		return http.StatusUnprocessableEntity, []byte(err.Error())
	}
	code, resp := s.drain()
	if code != http.StatusOK {
		return code, resp
	}
	s.lastSeq = req.Seq
	s.lastResp = resp
	return http.StatusOK, resp
}

func (w *Worker) handleClose(body []byte) (int, []byte) {
	var req closeReq
	if err := unsealFrame(body, &req); err != nil {
		return http.StatusBadRequest, []byte(err.Error())
	}
	w.mu.Lock()
	s := w.sessions[req.Session]
	if s != nil {
		delete(w.sessions, req.Session)
	} else {
		w.closeEarly(req.Session)
	}
	w.mu.Unlock()
	if s != nil {
		w.recycle(s)
	}
	return http.StatusOK, sealFrame(&evalResp{})
}

// closeEarly remembers the close of a session this worker does not
// know, forgetting the oldest such close beyond maxEarlyCloses. The
// caller holds w.mu.
func (w *Worker) closeEarly(id string) {
	if len(w.closedOrder) == maxEarlyCloses {
		delete(w.closedEarly, w.closedOrder[0])
		w.closedOrder = w.closedOrder[1:]
	}
	w.closedEarly[id] = true
	w.closedOrder = append(w.closedOrder, id)
}

// builder takes a cleared builder from the free list, or makes one.
// A new builder is cleared before its first tree, so it keeps every
// slab it fills.
func (w *Worker) builder() *tree.Builder {
	w.mu.Lock()
	defer w.mu.Unlock()
	if n := len(w.free); n > 0 {
		b := w.free[n-1]
		w.free = w.free[:n-1]
		return b
	}
	b := new(tree.Builder)
	b.Clear()
	return b
}

// recycle closes s for good and returns its storage to the free list.
// The closed flag is set under s.mu, so no supply evaluates on s once
// its slabs are cleared; the clear itself runs after, outside every
// lock. A full free list or an oversized builder drops the builder.
func (w *Worker) recycle(s *session) {
	s.mu.Lock()
	s.closed = true
	b := s.b
	s.ep, s.b, s.pending, s.lastResp = nil, nil, nil, nil
	s.mu.Unlock()
	b.Clear()
	w.mu.Lock()
	defer w.mu.Unlock()
	if keeps(len(w.free), b.Slabs()) {
		w.free = append(w.free, b)
	}
}

// keeps reports whether a free list of n builders takes back a cleared
// builder holding slabs slabs: the retention bound.
func keeps(n, slabs int) bool {
	return n < runtime.GOMAXPROCS(0) && slabs <= maxBuilderSlabs
}
