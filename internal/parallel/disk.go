package parallel

// The persistent tier of the whole-job cache: job results are spilled
// write-behind to an internal/cas store and loaded back on in-memory
// misses — including by a different process over the same directory,
// which is what makes a pagd restart warm and lets N replicas share
// one cache.
//
// A disk recording holds exactly what an in-memory entry holds, and
// what a hit returns: the job's post-splice root attributes and its
// cross-fragment message count. One compilation's output is its root
// attributes (§4.3) — the spliced program is among them — so nothing
// else is needed to serve an identical tree.
//
// Soundness carries over from the in-memory design unchanged because
// the disk key is a superset of the in-memory one. cacheKey leans on
// pointer identity for the grammar (the rules live on it), which no
// serialization can preserve; the disk key substitutes a structural
// grammar digest (symbols, attributes with their codec types, and
// production shapes — everything that addresses a recording) plus the
// job's UID-pair layout and the recording format version. Two
// processes built from the same source produce the same digest; a
// grammar whose structure changed simply never matches — stale entries
// are ignored, not misread. The one caveat: rule *bodies* are Go
// functions and cannot be digested, so a rule rewrite that keeps the
// grammar's shape must be paired with a cas scope/format bump (or a
// fresh cache directory) to invalidate old recordings; README's
// persistent-cache section documents this.
//
// Each root attribute is stored as its own codec's bytes — the bytes
// a cluster.Endpoint ships with the librarian off, the canonical form
// the byte-identity oracle is built on. The pool keeps no librarian,
// so a recorded value holds no handle; a value that did (CodeCodec.Encode
// refuses it) or has no codec is an encoding error, not something to
// persist.

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"pag/internal/ag"
	"pag/internal/cas"
	"pag/internal/cluster"
)

// entryFormat versions the recording payload layout inside cas
// entries. It participates in both the cas scope (a bump wipes stale
// directories wholesale) and each payload's leading byte (belt and
// suspenders against mixed-version shared directories).
const entryFormat = 5

// DiskScope is the cas scope string pools open their store under;
// sharing a directory requires sharing the scope.
const DiskScope = "pag-fragment-recordings/v5"

// OpenDiskCache opens (creating or, on a layout-version mismatch,
// wiping) dir as a persistent whole-job cache store for
// PoolOptions.DiskCache. maxBytes bounds the directory
// (0 = cas.DefaultMaxBytes, negative = unbounded).
func OpenDiskCache(dir string, maxBytes int64) (*cas.Store, error) {
	return cas.Open(cas.Options{Dir: dir, MaxBytes: maxBytes, Scope: DiskScope})
}

// diskCache wires a cas.Store behind the in-memory whole-job cache:
// loads are synchronous (a whole-tree miss is already off the
// per-message hot path), spills are write-behind on a single writer
// goroutine with a bounded queue — a slow or full disk drops spills
// rather than stalling compiles.
type diskCache struct {
	store *cas.Store

	hits   atomic.Int64
	writes atomic.Int64
	errors atomic.Int64

	ch chan spillReq
	wg sync.WaitGroup
}

// spillReq is one recording queued for persistence. The entry is
// immutable once published to the in-memory cache, so the writer
// goroutine encodes it without synchronization.
type spillReq struct {
	key   cas.Key
	entry *cacheEntry
	g     *ag.Grammar
}

func newDiskCache(store *cas.Store) *diskCache {
	d := &diskCache{store: store, ch: make(chan spillReq, 32)}
	d.wg.Add(1)
	go d.writer()
	return d
}

func (d *diskCache) writer() {
	defer d.wg.Done()
	for req := range d.ch {
		data, err := encodeEntry(req.entry, req.g)
		if err != nil {
			// A root value its codec cannot encode (or one with no
			// codec): the recording serves this process from memory
			// but cannot persist. Counted, not fatal.
			d.errors.Add(1)
			continue
		}
		if err := d.store.Put(req.key, data); err != nil {
			d.errors.Add(1)
			continue
		}
		d.writes.Add(1)
	}
}

// spill queues one recording for write-behind persistence; a full
// queue drops it (the entry stays replayable from memory and a later
// identical cold run gets another chance).
func (d *diskCache) spill(key cas.Key, entry *cacheEntry, g *ag.Grammar) {
	select {
	case d.ch <- spillReq{key: key, entry: entry, g: g}:
	default:
	}
}

// close flushes the spill queue and stops the writer.
func (d *diskCache) close() {
	close(d.ch)
	d.wg.Wait()
}

// load fetches and decodes the recording under key, or nil: a clean
// miss silently, anything else (I/O failure, corrupt store entry,
// undecodable payload) via the errors counter. An undecodable payload
// is deleted so the next cold run rewrites it.
func (d *diskCache) load(key cas.Key, g *ag.Grammar) *cacheEntry {
	data, err := d.store.Get(key)
	if err != nil {
		if !errors.Is(err, cas.ErrNotExist) {
			d.errors.Add(1)
		}
		return nil
	}
	e, err := decodeEntry(data, g)
	if err != nil {
		d.errors.Add(1)
		d.store.Delete(key)
		return nil
	}
	d.hits.Add(1)
	return e
}

// grammarDigest hashes the structure that addresses recordings: every
// symbol (name, kind flags, attribute names/kinds/priorities and codec
// *types* — the codec chooses the byte form root values are stored in) and
// every production's shape and rule dependency graph. Rule bodies are
// Go functions and deliberately absent; see the package comment.
func grammarDigest(g *ag.Grammar) [sha256.Size]byte {
	h := sha256.New()
	var scratch [binary.MaxVarintLen64]byte
	num := func(v int64) {
		n := binary.PutVarint(scratch[:], v)
		h.Write(scratch[:n])
	}
	str := func(s string) {
		num(int64(len(s)))
		h.Write([]byte(s))
	}
	str(g.Name)
	num(int64(len(g.Symbols)))
	for _, s := range g.Symbols {
		str(s.Name)
		num(b2i(s.Terminal)<<2 | b2i(s.Split)<<1)
		num(int64(s.MinSplitSize))
		num(int64(len(s.Attrs)))
		for _, a := range s.Attrs {
			str(a.Name)
			num(int64(a.Kind))
			num(b2i(a.Priority))
			str(fmt.Sprintf("%T", a.Codec))
		}
	}
	num(int64(g.Start.Index))
	num(int64(len(g.Prods)))
	for _, p := range g.Prods {
		num(int64(p.LHS.Index))
		num(int64(len(p.RHS)))
		for _, s := range p.RHS {
			num(int64(s.Index))
		}
		num(int64(len(p.Rules)))
		for i := range p.Rules {
			r := &p.Rules[i]
			num(int64(r.Target.Occ))
			num(int64(r.Target.Attr))
			num(int64(len(r.Deps)))
			for _, dep := range r.Deps {
				num(int64(dep.Occ))
				num(int64(dep.Attr))
			}
		}
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// grammarDigestFor memoizes grammarDigest per grammar (grammars are
// long-lived; the digest is not).
func (p *Pool) grammarDigestFor(g *ag.Grammar) [sha256.Size]byte {
	if d, ok := p.gramDigests.Load(g); ok {
		return d.([sha256.Size]byte)
	}
	d, _ := p.gramDigests.LoadOrStore(g, grammarDigest(g))
	return d.([sha256.Size]byte)
}

// diskKey maps the in-memory cacheKey (plus the job's UID layout and
// the recording format) to a process-independent content address.
func (p *Pool) diskKey(k *cacheKey, uids []cluster.UIDPair) cas.Key {
	h := sha256.New()
	var scratch [binary.MaxVarintLen64]byte
	num := func(v int64) {
		n := binary.PutVarint(scratch[:], v)
		h.Write(scratch[:n])
	}
	h.Write([]byte("pag-disk-key"))
	num(entryFormat)
	gd := p.grammarDigestFor(k.g)
	h.Write(gd[:])
	num(int64(len(uids)))
	for _, u := range uids {
		num(int64(u.Sym.Index))
		num(int64(u.Base))
		num(int64(u.Count))
	}
	h.Write(k.fragsHash[:])
	num(int64(k.frags))
	num(int64(k.width))
	num(int64(k.gran))
	var key cas.Key
	h.Sum(key[:0])
	return key
}

// ---------------------------------------------------------------------
// Recording payload encoding: varint-framed, defensive on decode (the
// payload may come from a shared directory another process wrote).

type entryEnc struct {
	buf []byte
	err error
}

func (e *entryEnc) u(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *entryEnc) bytes(b []byte) {
	e.u(uint64(len(b)))
	e.buf = append(e.buf, b...)
}
func (e *entryEnc) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

type entryDec struct {
	data []byte
	pos  int
	err  error
}

func (d *entryDec) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("parallel: recording payload: %s at %d", msg, d.pos)
	}
}

func (d *entryDec) u() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.pos += n
	return v
}

// flag reads a 0/1 flag; any other value is malformed, so an accepted
// payload is canonical.
func (d *entryDec) flag() bool {
	v := d.u()
	if v > 1 {
		d.fail(fmt.Sprintf("flag %d", v))
	}
	return v == 1
}

// counter reads a job counter, bounded so a corrupted value cannot
// overflow an int on any platform.
func (d *entryDec) counter() int {
	v := d.u()
	if v > math.MaxInt32 {
		d.fail(fmt.Sprintf("counter %d out of range", v))
		return 0
	}
	return int(v)
}

// count reads a collection length, bounding it by the bytes that could
// possibly back it (each element costs at least one byte) so a
// corrupted length cannot drive a giant allocation.
func (d *entryDec) count() int {
	v := d.u()
	if d.err != nil {
		return 0
	}
	if v > uint64(len(d.data)-d.pos) {
		d.fail(fmt.Sprintf("count %d exceeds remaining %d bytes", v, len(d.data)-d.pos))
		return 0
	}
	return int(v)
}

func (d *entryDec) bytes() []byte {
	n := d.count()
	if d.err != nil {
		return nil
	}
	b := d.data[d.pos : d.pos+n]
	d.pos += n
	return b
}

// encodeEntry serializes what a disk hit returns: the format byte, the
// root attributes of g's start symbol (each a nil flag, then its
// codec's bytes) and the message count.
func encodeEntry(entry *cacheEntry, g *ag.Grammar) ([]byte, error) {
	e := &entryEnc{}
	e.u(entryFormat)
	e.u(uint64(len(entry.rootAttrs)))
	for ai, v := range entry.rootAttrs {
		e.u(uint64(b2i(v != nil)))
		if v == nil {
			continue
		}
		a := &g.Start.Attrs[ai]
		if a.Codec == nil {
			e.fail(fmt.Errorf("parallel: %s.%s value %T has no codec", g.Start.Name, a.Name, v))
			break
		}
		data, err := a.Codec.Encode(v)
		if err != nil {
			e.fail(fmt.Errorf("parallel: encoding %s.%s: %w", g.Start.Name, a.Name, err))
			break
		}
		e.bytes(data)
	}
	e.u(uint64(entry.messages))
	return e.buf, e.err
}

// decodeEntry reconstructs a results-only recording. A root-attribute
// count that does not match g's start symbol is a decode error — the
// caller deletes the entry and the job runs cold.
func decodeEntry(data []byte, g *ag.Grammar) (*cacheEntry, error) {
	d := &entryDec{data: data}
	if v := d.u(); d.err == nil && v != entryFormat {
		return nil, fmt.Errorf("parallel: recording format %d (want %d)", v, entryFormat)
	}
	na := d.count()
	if d.err == nil && na != len(g.Start.Attrs) {
		return nil, fmt.Errorf("parallel: recording has %d root attrs, grammar has %d", na, len(g.Start.Attrs))
	}
	entry := &cacheEntry{rootAttrs: make([]ag.Value, na)}
	for ai := 0; ai < na && d.err == nil; ai++ {
		if !d.flag() {
			continue
		}
		a := &g.Start.Attrs[ai]
		if a.Codec == nil {
			d.fail(fmt.Sprintf("%s.%s has no codec for stored value", g.Start.Name, a.Name))
			break
		}
		data := d.bytes()
		if d.err != nil {
			break
		}
		v, err := a.Codec.Decode(data)
		if err != nil {
			d.fail(fmt.Sprintf("decoding %s.%s: %v", g.Start.Name, a.Name, err))
			break
		}
		entry.rootAttrs[ai] = v
	}
	entry.messages = d.counter()
	if d.err != nil {
		return nil, d.err
	}
	if d.pos != len(d.data) {
		return nil, fmt.Errorf("parallel: %d trailing bytes after recording", len(d.data)-d.pos)
	}
	return entry, nil
}
