// Package fleet is the distributed evaluation runtime: a coordinator
// that splits and splices a compilation locally (like the simulated
// cluster's parser process) but farms fragment evaluation out to pagd
// worker processes over RPC, designed failure-first. Workers are
// health-checked and load-balanced; a fragment whose worker dies
// mid-evaluation is transparently requeued to a healthy worker (its
// supply journal replays there, and rule purity plus deterministic
// handle allocation make the replayed outputs byte-identical); when no
// worker is healthy at all, evaluation degrades to an in-process
// worker instead of failing the job. Every RPC payload is sealed with
// an integrity checksum, so a corrupted response is detected and the
// fragment retried — garbage is never spliced into a program.
//
// The simulated cluster (internal/cluster) remains the byte-identity
// oracle: fleet output must equal cluster.Run and parallel.Pool output
// at the same decomposition width, including under injected faults
// (FaultTransport).
package fleet

// This file is the sealed wire codec (paglint/sealedio: the one place
// raw encoding/json is legitimate) and produces canonical wire bytes
// (paglint/determinism).
//paglint:sealed
//paglint:deterministic

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"

	"pag/internal/eval"
)

// Worker RPC paths. The open/supply/close session protocol carries
// sealed JSON bodies; the health endpoints are plain text so any HTTP
// prober can read them.
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

// sealJSON marshals v and seals it.
func sealJSON(v any) ([]byte, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return seal(payload), nil
}

// unsealJSON verifies data and unmarshals the payload into v. A body
// that verifies but does not parse is still corruption from the
// receiver's point of view.
func unsealJSON(data []byte, v any) error {
	payload, err := unseal(data)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("%w: %v", errCorrupt, err)
	}
	return nil
}

// wireUID is one unique-identifier attribute pair (cluster.UIDPair) by
// symbol index — grammar symbols are identified positionally on the
// wire, the two sides having built the same grammar.
type wireUID struct {
	Sym   int `json:"sym"`
	Base  int `json:"base"`
	Count int `json:"count"`
}

// wireMsg is one inbound attribute value for a session: Leaf is the
// remote-leaf fragment id the value lands on, or -1 for the fragment's
// own root (an inherited value arriving from the parent side).
type wireMsg struct {
	Leaf int    `json:"leaf"`
	Attr int    `json:"attr"`
	Data []byte `json:"data,omitempty"`
}

// rootLeaf is the wireMsg.Leaf value addressing the fragment root.
const rootLeaf = -1

// openReq creates (or rebuilds, idempotently) one evaluation session.
// Journal carries the supply batches already delivered to a previous
// incarnation of the session: a requeued fragment replays its history
// on the new worker, which reproduces the dead worker's outputs
// exactly (evaluation is pure and handle allocation deterministic).
// Yield asks for priority shipping: the session may answer any RPC
// with More set, and the coordinator then owes it a continue. A worker
// never yields unless asked, so a coordinator that predates More never
// parks a fragment that still has ready work.
type openReq struct {
	Session    string      `json:"session"`
	Grammar    string      `json:"grammar"`
	Frag       int         `json:"frag"`
	Mode       int         `json:"mode"`
	Librarian  bool        `json:"librarian"`
	UIDPreset  bool        `json:"uid_preset"`
	NoPriority bool        `json:"no_priority"`
	Yield      bool        `json:"yield,omitempty"`
	UIDBase    int         `json:"uid_base"`
	UIDs       []wireUID   `json:"uids,omitempty"`
	Tree       []byte      `json:"tree"`
	Journal    [][]wireMsg `json:"journal,omitempty"`
}

// supplyReq delivers one batch of attribute values to a session. Seq
// numbers batches from 1 in delivery order; a worker that has already
// applied Seq returns its cached response, which is what makes a retry
// after a mid-stream disconnect at-most-once. A continue — the answer
// to a response with More — is a supplyReq whose batch may be empty,
// numbered and journaled like any other.
type supplyReq struct {
	Session string    `json:"session"`
	Seq     int       `json:"seq"`
	Msgs    []wireMsg `json:"msgs"`
}

// closeReq discards a session (best-effort hygiene at job end).
type closeReq struct {
	Session string `json:"session"`
}

// outMsg is one attribute value the session computed for another
// fragment: Up means a root-synthesized value for the parent fragment
// (Frag = the sender), otherwise an inherited value for the fragment
// owning remote leaf Frag. The coordinator routes it; workers never
// talk to each other directly.
type outMsg struct {
	Up   bool   `json:"up,omitempty"`
	Frag int    `json:"frag"`
	Attr int    `json:"attr"`
	Data []byte `json:"data,omitempty"`
}

// storeOut is one run of code text deposited for the librarian: the
// coordinator keeps the store, workers only allocate handles (from
// their fragment's private deterministic range).
type storeOut struct {
	Handle int32  `json:"handle"`
	Text   string `json:"text"`
}

// rootOut is one synthesized attribute of the tree root (only the root
// fragment produces these). Ship marks descriptor-encoded code values
// that the coordinator resolves against its store.
type rootOut struct {
	Attr int    `json:"attr"`
	Data []byte `json:"data,omitempty"`
	Ship bool   `json:"ship,omitempty"`
}

// evalResp is the response to open and supply alike: everything the
// evaluation produced since the previous response. Stats is valid once
// Done. More means the session stopped early, right after shipping a
// priority value (only when the open asked for Yield): it still has
// work it can do without further input and waits for a continue.
type evalResp struct {
	Done   bool       `json:"done,omitempty"`
	More   bool       `json:"more,omitempty"`
	Msgs   []outMsg   `json:"msgs,omitempty"`
	Stores []storeOut `json:"stores,omitempty"`
	Roots  []rootOut  `json:"roots,omitempty"`
	Stats  eval.Stats `json:"stats,omitempty"`
}
