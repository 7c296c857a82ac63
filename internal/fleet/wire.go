// Package fleet is the distributed transport of the pool: a
// coordinator that evaluates a job's fragments on pagd worker processes
// over RPC, designed failure-first. The parallel.Pool stays the parser
// side — it plans and encodes the fragments and splices the result, as
// it does for a local job — and hands the coordinator only the
// evaluation (PoolOptions.Remote). Each worker session is a
// cluster.Endpoint, the same wire-level fragment evaluator the
// simulated cluster's machines run. Workers are health-checked and
// load-balanced; a fragment whose worker dies mid-evaluation is
// transparently requeued to a healthy worker (its supply journal
// replays there, and rule purity plus deterministic handle allocation
// make the replayed outputs byte-identical); when no worker is healthy
// at all, evaluation degrades to an in-process worker instead of
// failing the job. Every RPC payload is one versioned binary frame
// (subtrees, attribute values and code text as raw length-prefixed
// bytes, integers as varints; see sealFrame) sealed with an integrity
// checksum, so a corrupted response is detected and the fragment
// retried — garbage is never spliced into a program.
//
// Coordinator and workers must come from one build: grammar symbols
// and attributes travel by position.
//
// The simulated cluster (internal/cluster) remains the byte-identity
// oracle: fleet output must equal cluster.Run and parallel.Pool output
// at the same decomposition width, including under injected faults
// (FaultTransport).
package fleet

// This file is the sealed binary wire codec (paglint/sealedio) and
// produces canonical wire bytes (paglint/determinism).
//paglint:deterministic

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"

	"pag/internal/eval"
	"pag/internal/frame"
)

// Worker RPC paths. The open/supply/close session protocol carries
// sealed binary frames; the health endpoints are plain text so any
// HTTP prober can read them.
const (
	pathOpen   = "/fleet/open"
	pathSupply = "/fleet/supply"
	pathClose  = "/fleet/close"
	pathHealth = "/healthz"
	pathReady  = "/readyz"
)

// errCorrupt reports a payload that failed the wire integrity check.
// The coordinator treats it as transient (the fragment is retried and,
// if corruption persists, requeued) — never as data.
var errCorrupt = errors.New("fleet: corrupt payload (integrity check failed)")

// seal appends a SHA-256 trailer over payload. The checksum is not
// cryptographic protection — it is corruption *detection*, the
// property the byte-identity guarantee rests on: a flipped bit
// anywhere in a worker response surfaces as errCorrupt, not as a
// silently wrong program.
func seal(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	return append(payload, sum[:]...)
}

// unseal verifies and strips the trailer.
func unseal(data []byte) ([]byte, error) {
	if len(data) < sha256.Size {
		return nil, errCorrupt
	}
	payload, trailer := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], trailer) {
		return nil, errCorrupt
	}
	return payload, nil
}

// wireVersion leads every frame; a frame of another version is
// corrupt, since coordinator and workers come from one build.
const wireVersion = 1

// Frame kinds, the second byte of every frame.
const (
	kindOpen = 1 + iota
	kindSupply
	kindClose
	kindResp
)

// wireFrame is one message type of the session protocol.
type wireFrame interface {
	kind() byte
	put(e *frame.Enc)
	get(d *frame.Dec)
}

// sealFrame encodes m as a frame — version, kind, then m's fields
// (integers as varints, bytes and text length-prefixed and raw) — and
// seals it.
func sealFrame(m wireFrame) []byte {
	e := frame.Enc{Buf: []byte{wireVersion, m.kind()}}
	m.put(&e)
	return seal(e.Buf)
}

// unsealFrame verifies data and decodes the frame into m. A frame that
// verifies but is not exactly one well-formed m — another version or
// kind, a prefix longer than the rest, trailing bytes — is still
// corruption from the receiver's point of view.
func unsealFrame(data []byte, m wireFrame) error {
	payload, err := unseal(data)
	if err != nil {
		return err
	}
	if len(payload) < 2 || payload[0] != wireVersion || payload[1] != m.kind() {
		return fmt.Errorf("%w: not a version %d frame of kind %d", errCorrupt, wireVersion, m.kind())
	}
	d := frame.NewDec(payload[2:], "fleet: frame")
	m.get(d)
	if err := d.End(); err != nil {
		return fmt.Errorf("%w: %v", errCorrupt, err)
	}
	return nil
}

// wireUID is one unique-identifier attribute pair (cluster.UIDPair) by
// symbol index — grammar symbols are identified positionally on the
// wire, the two sides having built the same grammar.
type wireUID struct {
	Sym   int
	Base  int
	Count int
}

// wireMsg is one inbound attribute value for a session: Leaf is the
// remote-leaf fragment id the value lands on, or cluster.RootLeaf (-1)
// for the fragment's own root (an inherited value arriving from the
// parent side).
type wireMsg struct {
	Leaf int
	Attr int
	Data []byte
}

// openReq creates (or rebuilds, idempotently) one evaluation session.
// Journal carries the supply batches already delivered to a previous
// incarnation of the session: a requeued fragment replays its history
// on the new worker, which reproduces the dead worker's outputs
// exactly (evaluation is pure and handle allocation deterministic).
// Sessions ship priority values early: any response may carry More,
// and the coordinator then owes the session a continue. Every session
// runs the paper's configuration: the combined evaluator with
// unique-identifier presets, and the librarian whenever the grammar
// has a code attribute.
type openReq struct {
	Session string
	Grammar string
	Frag    int
	UIDBase int
	UIDs    []wireUID
	Tree    []byte
	Journal [][]wireMsg
}

// supplyReq delivers one batch of attribute values to a session. Seq
// numbers batches from 1 in delivery order; a worker that has already
// applied Seq returns its cached response, which is what makes a retry
// after a mid-stream disconnect at-most-once. A continue — the answer
// to a response with More — is a supplyReq whose batch may be empty,
// numbered and journaled like any other.
type supplyReq struct {
	Session string
	Seq     int
	Msgs    []wireMsg
}

// closeReq discards a session (best-effort hygiene at job end).
type closeReq struct {
	Session string
}

// outMsg is one attribute value the session computed for another
// fragment: Up means a root-synthesized value for the parent fragment
// (Frag = the sender), otherwise an inherited value for the fragment
// owning remote leaf Frag. The coordinator routes it; workers never
// talk to each other directly.
type outMsg struct {
	Up   bool
	Frag int
	Attr int
	Data []byte
}

// storeOut is one run of code text deposited for the librarian: the
// coordinator keeps the store, workers only allocate handles (from
// their fragment's private deterministic range).
type storeOut struct {
	Handle int32
	Text   string
}

// rootOut is one synthesized attribute of the tree root (only the root
// fragment produces these). Ship marks descriptor-encoded code values
// that the coordinator resolves against its store.
type rootOut struct {
	Attr int
	Data []byte
	Ship bool
}

// evalResp is the response to open and supply alike: everything the
// evaluation produced since the previous response. Stats is valid once
// Done. More means the session stopped early, right after shipping a
// priority value: it still has work it can do without further input
// and waits for a continue.
type evalResp struct {
	Done   bool
	More   bool
	Msgs   []outMsg
	Stores []storeOut
	Roots  []rootOut
	Stats  eval.Stats
}

// putList and getList frame a list as its count and then its
// elements.
func putList[T any](e *frame.Enc, xs []T, put func(*T)) {
	e.Uint(uint64(len(xs)))
	for i := range xs {
		put(&xs[i])
	}
}

func getList[T any](d *frame.Dec, get func(*T)) []T {
	n := d.Count()
	if n == 0 {
		return nil
	}
	xs := make([]T, n)
	for i := 0; i < n && d.Err == nil; i++ {
		get(&xs[i])
	}
	return xs
}

func putMsgs(e *frame.Enc, msgs []wireMsg) {
	putList(e, msgs, func(m *wireMsg) { e.Int(m.Leaf); e.Int(m.Attr); e.Bytes(m.Data) })
}

func getMsgs(d *frame.Dec) []wireMsg {
	return getList(d, func(m *wireMsg) { *m = wireMsg{Leaf: d.Int(), Attr: d.Int(), Data: d.Bytes()} })
}

func (*openReq) kind() byte   { return kindOpen }
func (*supplyReq) kind() byte { return kindSupply }
func (*closeReq) kind() byte  { return kindClose }
func (*evalResp) kind() byte  { return kindResp }

func (r *openReq) put(e *frame.Enc) {
	e.String(r.Session)
	e.String(r.Grammar)
	e.Int(r.Frag)
	e.Int(r.UIDBase)
	putList(e, r.UIDs, func(u *wireUID) { e.Int(u.Sym); e.Int(u.Base); e.Int(u.Count) })
	e.Bytes(r.Tree)
	putList(e, r.Journal, func(b *[]wireMsg) { putMsgs(e, *b) })
}

func (r *openReq) get(d *frame.Dec) {
	r.Session, r.Grammar, r.Frag, r.UIDBase = d.String(), d.String(), d.Int(), d.Int()
	r.UIDs = getList(d, func(u *wireUID) { *u = wireUID{Sym: d.Int(), Base: d.Int(), Count: d.Int()} })
	r.Tree = d.Bytes()
	r.Journal = getList(d, func(b *[]wireMsg) { *b = getMsgs(d) })
}

func (r *supplyReq) put(e *frame.Enc) {
	e.String(r.Session)
	e.Int(r.Seq)
	putMsgs(e, r.Msgs)
}

func (r *supplyReq) get(d *frame.Dec) { r.Session, r.Seq, r.Msgs = d.String(), d.Int(), getMsgs(d) }

func (r *closeReq) put(e *frame.Enc) { e.String(r.Session) }

func (r *closeReq) get(d *frame.Dec) { r.Session = d.String() }

func (r *evalResp) put(e *frame.Enc) {
	e.Flag(r.Done)
	e.Flag(r.More)
	putList(e, r.Msgs, func(m *outMsg) { e.Flag(m.Up); e.Int(m.Frag); e.Int(m.Attr); e.Bytes(m.Data) })
	putList(e, r.Stores, func(st *storeOut) { e.Int(int(st.Handle)); e.String(st.Text) })
	putList(e, r.Roots, func(rt *rootOut) { e.Int(rt.Attr); e.Bytes(rt.Data); e.Flag(rt.Ship) })
	s := r.Stats
	for _, v := range []int{s.DynamicEvals, s.StaticEvals, s.GraphNodes, s.GraphEdges, s.Supplied} {
		e.Int(v)
	}
}

func (r *evalResp) get(d *frame.Dec) {
	r.Done, r.More = d.Flag(), d.Flag()
	r.Msgs = getList(d, func(m *outMsg) { *m = outMsg{Up: d.Flag(), Frag: d.Int(), Attr: d.Int(), Data: d.Bytes()} })
	r.Stores = getList(d, func(st *storeOut) { *st = storeOut{Handle: int32(d.Int()), Text: d.String()} })
	r.Roots = getList(d, func(rt *rootOut) { *rt = rootOut{Attr: d.Int(), Data: d.Bytes(), Ship: d.Flag()} })
	r.Stats = eval.Stats{DynamicEvals: d.Int(), StaticEvals: d.Int(), GraphNodes: d.Int(), GraphEdges: d.Int(), Supplied: d.Int()}
}
