package parallel_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pag/internal/cas"
	"pag/internal/parallel"
	"pag/internal/rope"
	"pag/internal/workload"
)

// attrString renders a root attribute for content comparison. Code
// values compare by their flattened text: a disk round trip rebuilds
// the value in canonical (coalesced) shape, so structural identity is
// not preserved — byte content is the contract.
func attrString(v any) string {
	if c, ok := v.(rope.Code); ok {
		return rope.FlattenCode(c, nil)
	}
	return fmt.Sprint(v)
}

func openStore(t *testing.T, dir string) *cas.Store {
	t.Helper()
	s, err := cas.Open(cas.Options{Dir: dir, Scope: parallel.DiskScope})
	if err != nil {
		t.Fatalf("cas.Open: %v", err)
	}
	return s
}

func diskPool(t *testing.T, dir string) *parallel.Pool {
	t.Helper()
	return parallel.NewPool(parallel.PoolOptions{Workers: 4, DiskCache: openStore(t, dir)})
}

// TestDiskWarmRestartByteIdentical is the persistent cache's core
// contract: a SECOND pool over the same directory — a restarted
// process, as far as the cache can tell — serves the job as a disk
// hit, byte-identical to the first pool's cold run, with and without
// the librarian.
func TestDiskWarmRestartByteIdentical(t *testing.T) {
	cases := []struct {
		name string
		opts parallel.Options
	}{
		{"pascal-lib", parallel.Options{Fragments: 4, Librarian: true, UIDPreset: true}},
		{"pascal-nolib", parallel.Options{Fragments: 4, UIDPreset: true}},
		{"pascal-chain", parallel.Options{Fragments: 3, Librarian: true}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			job := pascalJob(t, workload.Tiny())
			ctx := context.Background()

			pool1 := diskPool(t, dir)
			cold, err := pool1.Compile(ctx, job, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			pool1.Close() // flushes the write-behind spill
			if st := pool1.Stats(); st.DiskWrites < 1 {
				t.Fatalf("no disk writes after cold run + close: %+v", st)
			}

			pool2 := diskPool(t, dir)
			defer pool2.Close()
			warm, err := pool2.Compile(ctx, job, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			st := pool2.Stats()
			if st.DiskHits < 1 {
				t.Fatalf("restarted pool did not hit disk: %+v", st)
			}
			if warm.Program != cold.Program {
				t.Errorf("disk-warm program differs from cold (%d vs %d bytes)", len(warm.Program), len(cold.Program))
			}
			for ai := range cold.RootAttrs {
				if attrString(warm.RootAttrs[ai]) != attrString(cold.RootAttrs[ai]) {
					t.Errorf("root attr %d differs disk-warm vs cold", ai)
				}
			}
			if warm.Frags != cold.Frags || len(warm.PerFrag) != warm.Frags {
				t.Errorf("disk-warm frags %d (%d per-fragment stats), cold %d", warm.Frags, len(warm.PerFrag), cold.Frags)
			}
			if warm.Messages != cold.Messages || warm.StoredStrings != cold.StoredStrings || warm.StoredBytes != cold.StoredBytes {
				t.Errorf("disk-warm counters %d/%d/%d differ from cold %d/%d/%d (messages/stored strings/stored bytes)",
					warm.Messages, warm.StoredStrings, warm.StoredBytes, cold.Messages, cold.StoredStrings, cold.StoredBytes)
			}
			// The loaded entry is published to the in-memory cache: a
			// third identical compile hits memory, not disk again.
			if _, err := pool2.Compile(ctx, job, c.opts); err != nil {
				t.Fatal(err)
			}
			st2 := pool2.Stats()
			if st2.DiskHits != st.DiskHits {
				t.Errorf("second warm compile went back to disk: %+v", st2)
			}
			if st2.CacheHits < 1 {
				t.Errorf("loaded entry not served from memory: %+v", st2)
			}
		})
	}
}

// TestDiskIncrementalAcrossProcesses is the cross-process shape of
// `pagc -batch -series`: pool 1 records a base program to disk; pool 2
// (a fresh process) disk-hits the base — which registers its fragments
// in the incremental index — then compiles a one-token edit and
// partial-replays the untouched fragments from the previous process's
// recording.
func TestDiskIncrementalAcrossProcesses(t *testing.T) {
	dir := t.TempDir()
	base := workload.Generate(workload.Tiny())
	edited := editSameLen(t, base, "(gtotal - gtotal)", "(gtotal - gcount)")
	opts := parallel.Options{Fragments: 4, Librarian: true, UIDPreset: true}
	ctx := context.Background()

	pool1 := diskPool(t, dir)
	if _, err := pool1.Compile(ctx, pascalSrcJob(t, base), opts); err != nil {
		t.Fatal(err)
	}
	pool1.Close()

	// The edited job's cache-free reference output.
	ref, err := parallel.Run(pascalSrcJob(t, edited), opts)
	if err != nil {
		t.Fatal(err)
	}

	pool2 := diskPool(t, dir)
	defer pool2.Close()
	if _, err := pool2.Compile(ctx, pascalSrcJob(t, base), opts); err != nil {
		t.Fatal(err)
	}
	res, err := pool2.Compile(ctx, pascalSrcJob(t, edited), opts)
	if err != nil {
		t.Fatal(err)
	}
	st := pool2.Stats()
	if st.DiskHits < 1 {
		t.Fatalf("base compile did not hit disk: %+v", st)
	}
	if res.PartialHits < 1 || st.CachePartialHits < 1 {
		t.Fatalf("edited compile replayed no fragments from the disk-loaded recording: res %d, %+v", res.PartialHits, st)
	}
	if res.Program != ref.Program {
		t.Errorf("partially replayed program differs from cache-free reference")
	}
}

// corruptOneEntry mangles every object file in the store directory in
// place (there is typically exactly one per recorded job) and returns
// how many it touched.
func corruptEntries(t *testing.T, dir string, mangle func([]byte) []byte) int {
	t.Helper()
	n := 0
	err := filepath.Walk(filepath.Join(dir, "objects"), func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		n++
		return os.WriteFile(path, mangle(data), 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestDiskCorruptEntrySkippedAndRewritten: a damaged entry is counted
// in disk_errors, the job runs cold (correct output), and the cold run
// rewrites the entry so the NEXT restart hits it.
func TestDiskCorruptEntrySkippedAndRewritten(t *testing.T) {
	for _, mode := range []string{"truncate", "bitflip"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			job := pascalJob(t, workload.Tiny())
			opts := parallel.Options{Fragments: 4, Librarian: true, UIDPreset: true}
			ctx := context.Background()

			pool1 := diskPool(t, dir)
			cold, err := pool1.Compile(ctx, job, opts)
			if err != nil {
				t.Fatal(err)
			}
			pool1.Close()

			if n := corruptEntries(t, dir, func(d []byte) []byte {
				if mode == "truncate" {
					return d[:len(d)/3]
				}
				out := append([]byte(nil), d...)
				out[len(out)/2] ^= 0x10
				return out
			}); n == 0 {
				t.Fatal("no entry files written by the cold run")
			}

			pool2 := diskPool(t, dir)
			res, err := pool2.Compile(ctx, job, opts)
			if err != nil {
				t.Fatal(err)
			}
			st := pool2.Stats()
			if st.DiskErrors < 1 {
				t.Fatalf("damaged entry not counted in disk_errors: %+v", st)
			}
			if st.DiskHits != 0 {
				t.Fatalf("damaged entry served as a hit: %+v", st)
			}
			if res.Program != cold.Program {
				t.Errorf("cold rerun after corruption differs from original cold run")
			}
			pool2.Close() // rewrite spill flushes

			pool3 := diskPool(t, dir)
			defer pool3.Close()
			if _, err := pool3.Compile(ctx, job, opts); err != nil {
				t.Fatal(err)
			}
			if st := pool3.Stats(); st.DiskHits < 1 {
				t.Fatalf("entry not rewritten after corruption: %+v", st)
			}
		})
	}
}

// TestDiskSharedDirConcurrent: two live pools over ONE directory (the
// N-replicas shape) compile a mixed workload concurrently; every
// result is byte-identical to a reference compile. Run under -race
// this also proves the spill/load paths race-free.
func TestDiskSharedDirConcurrent(t *testing.T) {
	dir := t.TempDir()
	poolA := diskPool(t, dir)
	defer poolA.Close()
	poolB := diskPool(t, dir)
	defer poolB.Close()

	srcs := []string{
		workload.Generate(workload.Tiny()),
		workload.Generate(workload.Small()),
	}
	opts := parallel.Options{Fragments: 4, Librarian: true, UIDPreset: true}
	refs := make([]string, len(srcs))
	for i, src := range srcs {
		res, err := parallel.Run(pascalSrcJob(t, src), opts)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = res.Program
	}

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pool := poolA
			if g%2 == 1 {
				pool = poolB
			}
			for i := 0; i < 4; i++ {
				si := (g + i) % len(srcs)
				res, err := pool.Compile(context.Background(), pascalSrcJob(t, srcs[si]), opts)
				if err != nil {
					errs <- err
					return
				}
				if res.Program != refs[si] {
					errs <- fmt.Errorf("goroutine %d iter %d: program differs from reference", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := poolA.Stats(); st.DiskErrors > 0 {
		t.Errorf("pool A disk errors under shared dir: %+v", st)
	}
	if st := poolB.Stats(); st.DiskErrors > 0 {
		t.Errorf("pool B disk errors under shared dir: %+v", st)
	}
}

// TestDiskScopeMismatchWipes: a directory written under a different
// cas scope opens clean (no misreads, no errors) — the versioning
// story end to end.
func TestDiskScopeMismatchWipes(t *testing.T) {
	dir := t.TempDir()
	stale, err := cas.Open(cas.Options{Dir: dir, Scope: "some-older-layout/v0"})
	if err != nil {
		t.Fatal(err)
	}
	k := cas.Key{1, 2, 3}
	if err := stale.Put(k, []byte("not a recording")); err != nil {
		t.Fatal(err)
	}

	pool := diskPool(t, dir) // opens with parallel.DiskScope, wipes
	defer pool.Close()
	job := pascalJob(t, workload.Tiny())
	if _, err := pool.Compile(context.Background(), job, parallel.Options{Fragments: 4, Librarian: true, UIDPreset: true}); err != nil {
		t.Fatal(err)
	}
	st := pool.Stats()
	if st.DiskHits != 0 || st.DiskErrors != 0 {
		t.Errorf("stale-scope directory not opened clean: %+v", st)
	}
	if !strings.Contains(readFile(t, filepath.Join(dir, "manifest.json")), parallel.DiskScope) {
		t.Errorf("manifest not rewritten to the pool's scope")
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
