package parallel

import (
	"bytes"
	"context"
	"testing"

	"pag/internal/ag"
	"pag/internal/cluster"
	"pag/internal/exprlang"
	"pag/internal/pascal"
	"pag/internal/workload"
)

// recordingCtx is what decodeEntry checks a recording against: the
// fragment root symbols of the job's decomposition and its grammar.
type recordingCtx struct {
	syms []*ag.Symbol
	g    *ag.Grammar
}

// record compiles job once on a fresh caching pool and returns the
// recording that compile published, encoded as the disk tier stores
// it, and the context it decodes against.
func record(tb testing.TB, job cluster.Job, opts Options) ([]byte, recordingCtx) {
	tb.Helper()
	p := NewPool(PoolOptions{Workers: 2})
	defer p.Close()
	res, err := p.Compile(context.Background(), job, opts)
	if err != nil {
		tb.Fatal(err)
	}
	if p.cache.len() != 1 {
		tb.Fatalf("compile published %d recordings, want 1", p.cache.len())
	}
	entry := p.cache.lru.Front().Value.(*cacheEntry)
	rc := recordingCtx{g: job.G}
	for _, f := range res.Decomp.Frags {
		rc.syms = append(rc.syms, f.Root.Sym)
	}
	data, err := encodeEntry(entry, rc.syms, rc.g)
	if err != nil {
		tb.Fatal(err)
	}
	return data, rc
}

// FuzzDecodeEntry fuzzes the on-disk recording decoder, which reads
// bytes another process may have written. decodeEntry must never
// panic, and any entry it accepts must encode (without error) to bytes
// that decode to an equal entry: re-encoding the re-decoded entry
// reproduces those bytes exactly. Every input is decoded against the
// contexts of both seed jobs, a Pascal and an expression-language
// recording.
func FuzzDecodeEntry(f *testing.F) {
	el := exprlang.MustNew()
	ea, err := ag.Analyze(el.G)
	if err != nil {
		f.Fatal(err)
	}
	eroot, err := el.Parse(exprlang.Generate(8, 6))
	if err != nil {
		f.Fatal(err)
	}
	ejob := cluster.Job{G: el.G, A: ea, Root: eroot, Lex: el.TerminalAttrs}
	pjob, err := pascal.MustNew().ClusterJob(workload.Generate(workload.Tiny()))
	if err != nil {
		f.Fatal(err)
	}
	var ctxs []recordingCtx
	for _, c := range []struct {
		job  cluster.Job
		opts Options
	}{
		{ejob, Options{Fragments: 3, Librarian: true, UIDPreset: true}},
		{pjob, Options{Fragments: 3, Librarian: true, UIDPreset: true}},
		{pjob, Options{Fragments: 2}},
	} {
		data, rc := record(f, c.job, c.opts)
		f.Add(data)
		ctxs = append(ctxs, rc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, rc := range ctxs {
			e1, err := decodeEntry(data, rc.syms, rc.g)
			if err != nil {
				continue
			}
			b1, err := encodeEntry(e1, rc.syms, rc.g)
			if err != nil {
				t.Fatalf("accepted entry does not encode: %v", err)
			}
			e2, err := decodeEntry(b1, rc.syms, rc.g)
			if err != nil {
				t.Fatalf("re-encoded entry does not decode: %v", err)
			}
			b2, err := encodeEntry(e2, rc.syms, rc.g)
			if err != nil {
				t.Fatalf("re-decoded entry does not encode: %v", err)
			}
			if !bytes.Equal(b1, b2) {
				t.Fatalf("re-decoded entry differs: %d vs %d bytes", len(b1), len(b2))
			}
		}
	})
}
