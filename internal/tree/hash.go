package tree

// Digests are content addresses: the encoding below must be
// bit-identical across runs and machines (paglint/determinism).
//paglint:deterministic

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"sync"

	"pag/internal/ag"
)

// Digest is a canonical structural content address of a subtree.
// SHA-256 deliberately: whole-job cache keys are built from digests of
// arbitrary user sources, and a collision would silently serve one
// job's cached output as another's — the address must be
// collision-resistant, not merely well-distributed.
type Digest [sha256.Size]byte

// Hash returns the canonical content address of the subtree: a digest
// over everything the parser contributes to a fragment — node kinds,
// symbol and production identities, terminal tokens and
// scanner-supplied terminal attribute values, and the shape of remote
// leaves (symbol plus fragment id). Attribute values of nonterminals
// are evaluation *outputs* and are deliberately excluded, so a tree
// hashes the same before and after evaluation.
//
// Two structurally identical subtrees (same grammar) always hash
// equal; the encoding is length-prefixed and kind-tagged, so subtrees
// that differ in any token, symbol, production or shape hash
// differently. Symbols and productions are identified by their
// grammar-local indices, so digests are only comparable between trees
// of the same grammar — cache keys must carry the grammar identity
// alongside the digest.
func Hash(n *Node) Digest {
	h := newHasher()
	h.node(n)
	d := h.sum()
	h.release()
	return d
}

// Digests returns the content address of every fragment's post-cut
// subtree, in fragment order. A fragment's digest covers its own
// symbols, tokens and remote-leaf shape (including the fragment ids its
// remote leaves point at), but nothing outside the fragment — so an
// edit elsewhere in the tree leaves the digest unchanged as long as the
// cut placement (and hence the fragment numbering) is stable. This is
// the per-fragment half of the incremental cache key. A planned
// decomposition (SplitEncode) hashes each cut subtree as the remote
// leaf that replaces it, so its digests equal those of the same cuts
// made in place.
func (d *Decomposition) Digests() []Digest {
	var cutAt map[*Node]int
	if d.cuts != nil && !d.applied {
		cutAt = make(map[*Node]int, len(d.cuts))
		for i, c := range d.cuts {
			cutAt[c.node] = i + 1
		}
	}
	out := make([]Digest, len(d.Frags))
	for i, f := range d.Frags {
		h := newHasher()
		h.cutAt = cutAt
		h.node(f.Root)
		out[i] = h.sum()
		h.cutAt = nil
		h.release()
	}
	return out
}

// CombineDigests folds a digest sequence into one digest (order
// matters: fragment 0's digest first). CombineDigests(d.Digests()) is
// the content address of a whole decomposition — and, because the
// fragments plus their remote-leaf structure reassemble into exactly
// one tree, of the whole job tree; keeping the two steps separate
// lets a caller address each fragment and the whole job while hashing
// every subtree once.
func CombineDigests(digs []Digest) Digest {
	h := newHasher()
	for i := range digs {
		h.write(digs[i][:])
	}
	d := h.sum()
	h.release()
	return d
}

// hasher accumulates the canonical encoding in a local buffer and
// feeds the SHA-256 state in large chunks: digests are computed on
// every cache lookup's path, and a state update per 8-byte field costs
// more than the hashing itself.
type hasher struct {
	w   hash.Hash
	buf []byte
	// cutAt maps the cut nodes of a planned decomposition to the ids of
	// the fragments they root; nil when hashing a tree as it is.
	cutAt map[*Node]int
}

const hasherChunk = 4096

// hashers recycles hasher states: digests are computed per fragment on
// every cache lookup, and the 4KiB batching buffer is the kind of
// allocation that turns into GC pressure on a busy pool.
var hashers = sync.Pool{New: func() any {
	return &hasher{w: sha256.New(), buf: make([]byte, 0, hasherChunk)}
}}

func newHasher() *hasher {
	h := hashers.Get().(*hasher)
	h.w.Reset()
	h.buf = h.buf[:0]
	return h
}

func (h *hasher) release() { hashers.Put(h) }

func (h *hasher) drain() {
	if len(h.buf) > 0 {
		h.w.Write(h.buf) //nolint:errcheck // hash.Hash never errors
		h.buf = h.buf[:0]
	}
}

func (h *hasher) room(n int) {
	if len(h.buf)+n > cap(h.buf) {
		h.drain()
	}
}

func (h *hasher) byte(b byte) {
	h.room(1)
	h.buf = append(h.buf, b)
}

func (h *hasher) int(v int) {
	h.room(8)
	h.buf = binary.LittleEndian.AppendUint64(h.buf, uint64(v))
}

func (h *hasher) string(s string) {
	h.int(len(s))
	if len(s) >= hasherChunk {
		h.drain()
		h.w.Write([]byte(s)) //nolint:errcheck // hash.Hash never errors
		return
	}
	h.room(len(s))
	h.buf = append(h.buf, s...)
}

func (h *hasher) write(p []byte) {
	if len(p) >= hasherChunk {
		h.drain()
		h.w.Write(p) //nolint:errcheck // hash.Hash never errors
		return
	}
	h.room(len(p))
	h.buf = append(h.buf, p...)
}

func (h *hasher) sum() Digest {
	h.drain()
	var d Digest
	h.w.Sum(d[:0])
	return d
}

// node mixes one subtree into the hash, kind-tagged with the same
// tagInterior/tagTerminal/tagRemote bytes the wire encoding uses, so
// an interior node can never collide with a terminal or remote leaf of
// identical payload bytes.
func (h *hasher) node(n *Node) {
	switch {
	case n.Remote:
		h.remote(n.Sym, n.RemoteID)
	case n.Sym.Terminal:
		h.byte(tagTerminal)
		h.int(n.Sym.Index)
		h.string(n.Token)
		h.int(len(n.Attrs))
		for _, v := range n.Attrs {
			// Kind-tagged, and length-prefixed where the value is
			// formatted: a formatted value may contain any byte, so only
			// the prefix keeps adjacent values from sliding into each
			// other and colliding. The typed branches cover the scalar
			// attribute values scanners actually produce — hashing is on
			// every cache lookup's path, and fmt boxing there is real
			// cost, not just untidiness.
			switch x := v.(type) {
			case nil:
				h.byte('n')
			case int:
				h.byte('i')
				h.int(x)
			case bool:
				h.byte('b')
				if x {
					h.byte(1)
				} else {
					h.byte(0)
				}
			case string:
				h.byte('s')
				h.string(x)
			default:
				h.byte('?')
				h.string(fmt.Sprint(x))
			}
		}
	default:
		h.byte(tagInterior)
		h.int(n.Prod.Index)
		for _, c := range n.Children {
			if h.cutAt != nil {
				if id, ok := h.cutAt[c]; ok {
					h.remote(c.Sym, id)
					continue
				}
			}
			h.node(c)
		}
	}
}

func (h *hasher) remote(sym *ag.Symbol, id int) {
	h.byte(tagRemote)
	h.int(sym.Index)
	h.int(id)
}
