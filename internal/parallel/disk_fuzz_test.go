package parallel

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"pag/internal/ag"
	"pag/internal/cluster"
	"pag/internal/exprlang"
	"pag/internal/pascal"
	"pag/internal/rope"
	"pag/internal/workload"
)

// recordingCtx is what decodeEntry checks a recording against: the
// fragment root symbols of the job's decomposition and its grammar.
type recordingCtx struct {
	syms []*ag.Symbol
	g    *ag.Grammar
}

// recordEntry compiles job once on a fresh caching pool and returns
// the recording that compile published and the context it encodes and
// decodes against.
func recordEntry(tb testing.TB, job cluster.Job, opts Options) (*cacheEntry, recordingCtx) {
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
	rc := recordingCtx{g: job.G}
	for _, f := range res.Decomp.Frags {
		rc.syms = append(rc.syms, f.Root.Sym)
	}
	return p.cache.lru.Front().Value.(*cacheEntry), rc
}

// record is recordEntry with the recording encoded as the disk tier
// stores it.
func record(tb testing.TB, job cluster.Job, opts Options) ([]byte, recordingCtx) {
	tb.Helper()
	entry, rc := recordEntry(tb, job, opts)
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

// tinyRecording records the Tiny Pascal workload at width 3, the
// recording context FuzzDecodeEntry's Pascal seed decodes against.
func tinyRecording(t *testing.T) ([]byte, recordingCtx) {
	t.Helper()
	job, err := pascal.MustNew().ClusterJob(workload.Generate(workload.Tiny()))
	if err != nil {
		t.Fatal(err)
	}
	return record(t, job, Options{Fragments: 3, Librarian: true, UIDPreset: true})
}

// TestDiskRejectsOldFormat checks the recording format gate: a payload
// in the previous layout (leading byte 2, whose recordings carried
// librarian handles) is refused at its first byte, before any of its
// fields is read under the current layout.
func TestDiskRejectsOldFormat(t *testing.T) {
	data, rc := tinyRecording(t)
	if _, err := decodeEntry(data, rc.syms, rc.g); err != nil {
		t.Fatalf("current recording does not decode: %v", err)
	}
	data[0] = 2
	_, err := decodeEntry(data, rc.syms, rc.g)
	if err == nil || !strings.Contains(err.Error(), "recording format 2") {
		t.Fatalf("format-2 payload: got %v, want a recording format error", err)
	}
}

// TestDiskFuzzCorpusReachesEnvCodec keeps the checked-in
// FuzzDecodeEntry regression input effective: it must get past the
// format byte and the recording framing and fail inside the Pascal
// environment codec, on an entry count the payload cannot hold — the
// input once drove that codec into a huge allocation.
func TestDiskFuzzCorpusReachesEnvCodec(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDecodeEntry", "0263d7a344b7980d"))
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
	if !ok || !strings.HasSuffix(lit, ")") {
		t.Fatalf("unexpected corpus file layout:\n%s", raw)
	}
	data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatal(err)
	}
	_, rc := tinyRecording(t)
	_, err = decodeEntry([]byte(data), rc.syms, rc.g)
	if err == nil || !strings.Contains(err.Error(), ".env: pascal: truncated count") {
		t.Fatalf("corpus input: got %v, want an env codec count error", err)
	}
}

// TestDiskRejectsCodeFlagOnNonCode: a payload that marks a non-code
// message value for re-deposit is refused at decode, instead of
// failing the job that would replay it.
func TestDiskRejectsCodeFlagOnNonCode(t *testing.T) {
	job, err := pascal.MustNew().ClusterJob(workload.Generate(workload.Tiny()))
	if err != nil {
		t.Fatal(err)
	}
	entry, rc := recordEntry(t, job, Options{Fragments: 3, Librarian: true, UIDPreset: true})
	bad := *entry
	bad.frags = slices.Clone(entry.frags)
	f := &bad.frags[0]
	f.msgs = slices.Clone(f.msgs)
	i := slices.IndexFunc(f.msgs, func(m cachedMsg) bool {
		_, isCode := m.val.(rope.Code)
		return !isCode
	})
	if i < 0 {
		t.Fatal("root fragment recorded no non-code message")
	}
	f.msgs[i].code = true
	data, err := encodeEntry(&bad, rc.syms, rc.g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeEntry(data, rc.syms, rc.g); err == nil || !strings.Contains(err.Error(), "re-deposit flag") {
		t.Fatalf("got %v, want a re-deposit flag error", err)
	}
}
