package parallel

// The persistent tier of the fragment cache: whole-job recordings
// (cacheEntry) are spilled write-behind to an internal/cas store and
// loaded back on whole-tree misses — including by a different process
// over the same directory, which is what makes a pagd restart warm and
// lets N replicas share one cache.
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
// Values survive the trip through each attribute's own network codec —
// the same canonical byte form the simulated cluster ships, which is
// the equivalence the byte-identity oracle is built on — except code
// values, which serialize structurally (text runs and raw librarian
// handle numbers). Handle numbers are valid because replay re-deposits
// each fragment's recorded ownRuns in recorded order under the
// replaying job's private range, reproducing the exact handle→text
// mapping of the recording run; that argument is process-independent,
// so it holds for a disk load in a fresh process too.

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"pag/internal/ag"
	"pag/internal/cas"
	"pag/internal/cluster"
	"pag/internal/rope"
)

// entryFormat versions the recording payload layout inside cas
// entries. It participates in both the cas scope (a bump wipes stale
// directories wholesale) and each payload's leading byte (belt and
// suspenders against mixed-version shared directories).
const entryFormat = 2

// DiskScope is the cas scope string pools open their store under;
// sharing a directory requires sharing the scope.
const DiskScope = "pag-fragment-recordings/v2"

// OpenDiskCache opens (creating or, on a layout-version mismatch,
// wiping) dir as a persistent fragment-cache store for
// PoolOptions.DiskCache. maxBytes bounds the directory
// (0 = cas.DefaultMaxBytes, negative = unbounded).
func OpenDiskCache(dir string, maxBytes int64) (*cas.Store, error) {
	return cas.Open(cas.Options{Dir: dir, MaxBytes: maxBytes, Scope: DiskScope})
}

// diskCache wires a cas.Store behind the in-memory fragment cache:
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
	syms  []*ag.Symbol // per-fragment root symbols (codec resolution)
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
		data, err := encodeEntry(req.entry, req.syms, req.g)
		if err != nil {
			// A value no codec or structural fallback covers: the
			// recording serves this process from memory but cannot
			// persist. Counted, not fatal.
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
func (d *diskCache) spill(key cas.Key, entry *cacheEntry, syms []*ag.Symbol, g *ag.Grammar) {
	select {
	case d.ch <- spillReq{key: key, entry: entry, syms: syms, g: g}:
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
func (d *diskCache) load(key cas.Key, syms []*ag.Symbol, g *ag.Grammar) *cacheEntry {
	data, err := d.store.Get(key)
	if err != nil {
		if !errors.Is(err, cas.ErrNotExist) {
			d.errors.Add(1)
		}
		return nil
	}
	e, err := decodeEntry(data, syms, g)
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
// *types* — the codec chooses the wire form values replay through) and
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
	num(int64(k.mode))
	num(b2i(k.librarian)<<1 | b2i(k.uidPreset))
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

func (e *entryEnc) u(v uint64)   { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *entryEnc) i(v int64)    { e.buf = binary.AppendVarint(e.buf, v) }
func (e *entryEnc) b(v bool)     { e.u(uint64(b2i(v))) }
func (e *entryEnc) raw(b []byte) { e.buf = append(e.buf, b...) }
func (e *entryEnc) str(s string) {
	e.u(uint64(len(s)))
	e.buf = append(e.buf, s...)
}
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

func (d *entryDec) i() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.pos:])
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.pos += n
	return v
}

func (d *entryDec) b() bool { return d.u() != 0 }

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

func (d *entryDec) str() string {
	n := d.count()
	if d.err != nil {
		return ""
	}
	s := string(d.data[d.pos : d.pos+n])
	d.pos += n
	return s
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

func (d *entryDec) raw(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n > len(d.data)-d.pos {
		d.fail("truncated")
		return nil
	}
	b := d.data[d.pos : d.pos+n]
	d.pos += n
	return b
}

// Value tags of the payload encoding.
const (
	valNil   = 0 // no bytes
	valCodec = 1 // attribute codec bytes
	valCode  = 2 // rope.Code structure: text runs + raw handles
	valTyped = 3 // structural fallback for plain codec-less values
)

// encodeValue writes one attribute value. Code values are checked
// first — they may carry librarian handles only the structural form
// preserves — then the attribute's network codec, then a structural
// fallback for the plain Go types grammars use without codecs.
func encodeValue(e *entryEnc, sym *ag.Symbol, attr int, v ag.Value) {
	if v == nil {
		e.u(valNil)
		return
	}
	if code, ok := v.(rope.Code); ok {
		e.u(valCode)
		var npieces uint64
		rope.WalkCode(code, func(string) { npieces++ }, func(int32, int) { npieces++ })
		e.u(npieces)
		rope.WalkCode(code,
			func(s string) {
				e.u(0)
				e.str(s)
			},
			func(h int32, n int) {
				e.u(1)
				e.i(int64(h))
				e.u(uint64(n))
			})
		return
	}
	if codec := sym.Attrs[attr].Codec; codec != nil {
		data, err := codec.Encode(v)
		if err != nil {
			e.fail(fmt.Errorf("parallel: encoding %s.%s: %w", sym.Name, sym.Attrs[attr].Name, err))
			return
		}
		e.u(valCodec)
		e.bytes(data)
		return
	}
	switch x := v.(type) {
	case bool:
		e.u(valTyped)
		e.str("b")
		e.b(x)
	case int:
		e.u(valTyped)
		e.str("i")
		e.i(int64(x))
	case string:
		e.u(valTyped)
		e.str("s")
		e.str(x)
	case []string:
		e.u(valTyped)
		e.str("S")
		e.u(uint64(len(x)))
		for _, s := range x {
			e.str(s)
		}
	default:
		e.fail(fmt.Errorf("parallel: %s.%s value %T has no persistent form",
			sym.Name, sym.Attrs[attr].Name, v))
	}
}

func decodeValue(d *entryDec, sym *ag.Symbol, attr int) ag.Value {
	switch tag := d.u(); tag {
	case valNil:
		return nil
	case valCode:
		n := d.count()
		var code rope.Code
		// Coalesce adjacent text runs: a pure-text value decodes to one
		// Leaf (matching the flattened form callers print and compare),
		// not a concatenation mirroring the encoder's walk.
		var pending strings.Builder
		flush := func() {
			if pending.Len() > 0 {
				code = rope.CatCode(code, rope.Leaf(pending.String()))
				pending.Reset()
			}
		}
		for i := 0; i < n && d.err == nil; i++ {
			switch kind := d.u(); kind {
			case 0:
				pending.WriteString(d.str())
			case 1:
				flush()
				h := d.i()
				ln := d.u()
				if h < 0 || h > int64(^uint32(0)>>1) || ln > uint64(^uint32(0)>>1) {
					d.fail("handle out of range")
					return nil
				}
				code = rope.CatCode(code, rope.HandleDesc(int32(h), int(ln)))
			default:
				d.fail("bad code piece kind")
				return nil
			}
		}
		flush()
		if code == nil {
			// CatCode drops empty operands; a recorded empty code value
			// must stay a non-nil Code on replay.
			code = rope.Leaf("")
		}
		return code
	case valCodec:
		codec := sym.Attrs[attr].Codec
		if codec == nil {
			d.fail(fmt.Sprintf("%s.%s has no codec for stored value", sym.Name, sym.Attrs[attr].Name))
			return nil
		}
		v, err := codec.Decode(d.bytes())
		if err != nil {
			d.fail(fmt.Sprintf("decoding %s.%s: %v", sym.Name, sym.Attrs[attr].Name, err))
			return nil
		}
		return v
	case valTyped:
		switch kind := d.str(); kind {
		case "b":
			return d.b()
		case "i":
			return int(d.i())
		case "s":
			return d.str()
		case "S":
			n := d.count()
			out := make([]string, 0, n)
			for i := 0; i < n && d.err == nil; i++ {
				out = append(out, d.str())
			}
			return out
		default:
			d.fail("bad typed-value kind")
			return nil
		}
	default:
		d.fail("bad value tag")
		return nil
	}
}

// msgSym resolves the symbol whose attribute a recorded message
// defines: downward (toRoot) messages set an inherited attribute of
// the target fragment's root; upward ones a synthesized attribute of
// the sending fragment's root (arriving at the remote leaf standing
// for it, which shares that symbol).
func msgSym(m *cachedMsg, from int, syms []*ag.Symbol) *ag.Symbol {
	if m.toRoot {
		return syms[m.target]
	}
	return syms[from]
}

// encodeEntry serializes one whole-job recording. syms lists each
// fragment's root symbol in fragment order (needed to resolve
// attribute codecs); g is the job's grammar (root attributes).
func encodeEntry(entry *cacheEntry, syms []*ag.Symbol, g *ag.Grammar) ([]byte, error) {
	e := &entryEnc{}
	e.u(entryFormat)
	e.u(uint64(len(entry.frags)))
	for fi := range entry.frags {
		f := &entry.frags[fi]
		e.u(uint64(len(f.ownRuns)))
		for _, run := range f.ownRuns {
			e.str(run)
		}
		e.u(uint64(len(f.msgs)))
		for mi := range f.msgs {
			m := &f.msgs[mi]
			e.u(uint64(m.target))
			e.b(m.toRoot)
			e.u(uint64(m.attr))
			e.u(uint64(m.wave))
			encodeValue(e, msgSym(m, fi, syms), m.attr, m.val)
			e.str(m.text)
			e.b(m.code)
		}
		e.u(uint64(len(f.inOrder)))
		for _, k := range f.inOrder {
			e.i(int64(k.leaf)) // rootSlot is -1: signed
			e.u(uint64(k.attr))
		}
		if f.inbound == nil {
			e.i(-1)
		} else {
			keys := make([]inKey, 0, len(f.inbound))
			for k := range f.inbound {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool {
				if keys[i].leaf != keys[j].leaf {
					return keys[i].leaf < keys[j].leaf
				}
				return keys[i].attr < keys[j].attr
			})
			e.i(int64(len(keys)))
			for _, k := range keys {
				e.i(int64(k.leaf))
				e.u(uint64(k.attr))
				fp := f.inbound[k]
				e.raw(fp[:])
			}
		}
	}
	e.u(uint64(len(entry.rootAttrs)))
	for ai, v := range entry.rootAttrs {
		encodeValue(e, g.Start, ai, v)
	}
	return e.buf, e.err
}

// decodeEntry reconstructs a recording. Structural mismatches against
// the current job (fragment count, attribute indices out of range) are
// decode errors — the caller deletes the entry and the job runs cold.
func decodeEntry(data []byte, syms []*ag.Symbol, g *ag.Grammar) (*cacheEntry, error) {
	d := &entryDec{data: data}
	if v := d.u(); d.err == nil && v != entryFormat {
		return nil, fmt.Errorf("parallel: recording format %d (want %d)", v, entryFormat)
	}
	nf := d.count()
	if d.err == nil && nf != len(syms) {
		return nil, fmt.Errorf("parallel: recording has %d fragments, job has %d", nf, len(syms))
	}
	entry := &cacheEntry{frags: make([]fragRecord, nf)}
	for fi := 0; fi < nf && d.err == nil; fi++ {
		f := &entry.frags[fi]
		if n := d.count(); d.err == nil {
			f.ownRuns = make([]string, 0, n)
			for i := 0; i < n && d.err == nil; i++ {
				f.ownRuns = append(f.ownRuns, d.str())
			}
		}
		nm := d.count()
		if d.err == nil {
			f.msgs = make([]cachedMsg, 0, nm)
		}
		for i := 0; i < nm && d.err == nil; i++ {
			var m cachedMsg
			m.target = int(d.u())
			m.toRoot = d.b()
			m.attr = int(d.u())
			m.wave = int(d.u())
			if m.target < 0 || m.target >= nf {
				d.fail("message target out of range")
				break
			}
			sym := msgSym(&m, fi, syms)
			if m.attr < 0 || m.attr >= len(sym.Attrs) {
				d.fail("message attribute out of range")
				break
			}
			m.val = decodeValue(d, sym, m.attr)
			m.text = d.str()
			m.code = d.b()
			f.msgs = append(f.msgs, m)
		}
		if n := d.count(); d.err == nil {
			f.inOrder = make([]inKey, 0, n)
			for i := 0; i < n && d.err == nil; i++ {
				leaf := int(d.i())
				attr := int(d.u())
				f.inOrder = append(f.inOrder, inKey{leaf: leaf, attr: attr})
			}
		}
		if ni := d.i(); ni >= 0 {
			if uint64(ni) > uint64(len(d.data)-d.pos) {
				d.fail("inbound count")
				continue
			}
			f.inbound = make(map[inKey]valFP, ni)
			for i := int64(0); i < ni && d.err == nil; i++ {
				k := inKey{leaf: int(d.i()), attr: int(d.u())}
				var fp valFP
				copy(fp[:], d.raw(len(fp)))
				f.inbound[k] = fp
			}
		}
	}
	na := d.count()
	if d.err == nil && na != len(g.Start.Attrs) {
		return nil, fmt.Errorf("parallel: recording has %d root attrs, grammar has %d", na, len(g.Start.Attrs))
	}
	entry.rootAttrs = make([]ag.Value, 0, na)
	for i := 0; i < na && d.err == nil; i++ {
		entry.rootAttrs = append(entry.rootAttrs, decodeValue(d, g.Start, i))
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.pos != len(d.data) {
		return nil, fmt.Errorf("parallel: %d trailing bytes after recording", len(d.data)-d.pos)
	}
	// The root fragment's record exposes the job's post-splice root
	// attributes during whole-job replay, same aliasing put() jobs set
	// up at publication.
	if nf > 0 {
		entry.frags[0].rootAttrs = entry.rootAttrs
	}
	return entry, nil
}
