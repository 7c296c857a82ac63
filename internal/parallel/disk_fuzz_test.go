package parallel

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"pag/internal/ag"
	"pag/internal/cluster"
	"pag/internal/exprlang"
	"pag/internal/pascal"
	"pag/internal/workload"
)

// recordEntry compiles job once on a fresh caching pool and returns
// the recording that compile published.
func recordEntry(tb testing.TB, job cluster.Job, opts Options) *cacheEntry {
	tb.Helper()
	p := NewPool(PoolOptions{Workers: 2})
	defer p.Close()
	if _, err := p.Compile(context.Background(), job, opts); err != nil {
		tb.Fatal(err)
	}
	if p.cache.len() != 1 {
		tb.Fatalf("compile published %d recordings, want 1", p.cache.len())
	}
	return p.cache.lru.Front().Value.(*cacheEntry)
}

// record is recordEntry with the recording encoded as the disk tier
// stores it.
func record(tb testing.TB, job cluster.Job, opts Options) []byte {
	tb.Helper()
	data, err := encodeEntry(recordEntry(tb, job, opts), job.G)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzDecodeEntry fuzzes the on-disk recording decoder, which reads
// bytes another process may have written. decodeEntry must never
// panic, and any entry it accepts must encode (without error) to bytes
// that decode to an equal entry: re-encoding the re-decoded entry
// reproduces those bytes exactly. Every input is decoded against both
// seed grammars, Pascal and the expression language.
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
	for _, c := range []struct {
		job  cluster.Job
		opts Options
	}{
		{ejob, Options{Fragments: 3}},
		{pjob, Options{Fragments: 3}},
		{pjob, Options{Fragments: 2}},
	} {
		f.Add(record(f, c.job, c.opts))
	}
	grammars := []*ag.Grammar{ejob.G, pjob.G}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, g := range grammars {
			e1, err := decodeEntry(data, g)
			if err != nil {
				continue
			}
			b1, err := encodeEntry(e1, g)
			if err != nil {
				t.Fatalf("accepted entry does not encode: %v", err)
			}
			e2, err := decodeEntry(b1, g)
			if err != nil {
				t.Fatalf("re-encoded entry does not decode: %v", err)
			}
			b2, err := encodeEntry(e2, g)
			if err != nil {
				t.Fatalf("re-decoded entry does not encode: %v", err)
			}
			if !bytes.Equal(b1, b2) {
				t.Fatalf("re-decoded entry differs: %d vs %d bytes", len(b1), len(b2))
			}
		}
	})
}

// tinyRecording records the Tiny Pascal workload at width 3, one of
// FuzzDecodeEntry's Pascal seeds, and returns it with its grammar.
func tinyRecording(t *testing.T) ([]byte, *ag.Grammar) {
	t.Helper()
	job, err := pascal.MustNew().ClusterJob(workload.Generate(workload.Tiny()))
	if err != nil {
		t.Fatal(err)
	}
	return record(t, job, Options{Fragments: 3}), job.G
}

// TestDiskRejectsOldFormat checks the recording format gate: a payload
// in the previous layout (leading byte 4, whose recordings carried the
// librarian's string and byte counts after the message count) is
// refused at its first byte, before any of its fields is read under
// the current layout.
func TestDiskRejectsOldFormat(t *testing.T) {
	data, g := tinyRecording(t)
	if _, err := decodeEntry(data, g); err != nil {
		t.Fatalf("current recording does not decode: %v", err)
	}
	data[0] = 4
	_, err := decodeEntry(data, g)
	if err == nil || !strings.Contains(err.Error(), "recording format 4") {
		t.Fatalf("format-4 payload: got %v, want a recording format error", err)
	}
}

// TestDiskFuzzCorpusReachesRootCodec keeps the checked-in
// FuzzDecodeEntry regression input effective: it must get past the
// format byte and the recording framing and fail inside the Pascal
// error-list codec of the root symbol, on an entry count the payload
// cannot hold — a count that, if trusted, would size a huge slice.
func TestDiskFuzzCorpusReachesRootCodec(t *testing.T) {
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
	_, g := tinyRecording(t)
	_, err = decodeEntry([]byte(data), g)
	if err == nil || !strings.Contains(err.Error(), ".errs: pascal: count") {
		t.Fatalf("corpus input: got %v, want an errs codec count error", err)
	}
}
