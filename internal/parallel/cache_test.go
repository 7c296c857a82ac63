// The warm-hit test still sets the deprecated Librarian and UIDPreset
// knobs: it checks that the pool ignores them.
//
//lint:file-ignore SA1019 the deprecated knobs are set on purpose
package parallel_test

import (
	"context"
	"fmt"
	"testing"

	"pag/internal/exprlang"
	"pag/internal/parallel"
	"pag/internal/pascal"
	"pag/internal/workload"
)

// TestCacheWarmHitByteIdentical is the whole-job cache's correctness
// bar: a warm (whole-tree hit) compile of an identical source must
// report what the cold run did — program text, root attributes,
// librarian activity, message count and fragment count — for both the
// Pascal compiler and the appendix grammar. The deprecated Librarian
// and UIDPreset knobs are ignored: pascal-nolib hits the recording
// pascal-lib made at the same width, and pascal-chain gets the
// presets' program, the one a cache-free run gives.
func TestCacheWarmHitByteIdentical(t *testing.T) {
	pool := parallel.NewPool(parallel.PoolOptions{Workers: 4})
	defer pool.Close()
	ctx := context.Background()

	jobs := []struct {
		name string
		opts parallel.Options
	}{
		{"pascal-lib", parallel.Options{Fragments: 4, Librarian: true, UIDPreset: true}},
		{"pascal-nolib", parallel.Options{Fragments: 4, UIDPreset: true}},
		{"pascal-chain", parallel.Options{Fragments: 3, Librarian: true}},
	}
	pascal := pascalJob(t, workload.Tiny())
	for _, c := range jobs {
		t.Run(c.name, func(t *testing.T) {
			ref, err := parallel.Run(pascal, parallel.Options{Fragments: c.opts.Fragments})
			if err != nil {
				t.Fatal(err)
			}
			cold, err := pool.Compile(ctx, pascal, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if cold.Program != ref.Program {
				t.Errorf("program differs from a cache-free run without the deprecated knobs")
			}
			warm, err := pool.Compile(ctx, pascal, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if warm.Program != cold.Program {
				t.Errorf("warm program differs from cold (%d vs %d bytes)", len(warm.Program), len(cold.Program))
			}
			if warm.StoredStrings != cold.StoredStrings || warm.StoredBytes != cold.StoredBytes {
				t.Errorf("warm librarian activity %d/%d differs from cold %d/%d",
					warm.StoredStrings, warm.StoredBytes, cold.StoredStrings, cold.StoredBytes)
			}
			if warm.Messages != cold.Messages {
				t.Errorf("warm messages %d, cold %d", warm.Messages, cold.Messages)
			}
			if warm.Frags != cold.Frags || len(warm.PerFrag) != warm.Frags {
				t.Errorf("warm frags %d (%d per-fragment stats), cold %d", warm.Frags, len(warm.PerFrag), cold.Frags)
			}
			for ai := range cold.RootAttrs {
				if fmt.Sprint(warm.RootAttrs[ai]) != fmt.Sprint(cold.RootAttrs[ai]) {
					t.Errorf("root attr %d differs warm vs cold", ai)
				}
			}
		})
	}

	t.Run("exprlang", func(t *testing.T) {
		job := exprJob(t, exprlang.Generate(8, 6))
		opts := parallel.Options{Fragments: 4}
		cold, err := pool.Compile(ctx, job, opts)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := pool.Compile(ctx, job, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprint(warm.RootAttrs[exprlang.AttrValue]), fmt.Sprint(cold.RootAttrs[exprlang.AttrValue]); got != want {
			t.Errorf("warm value %s, cold %s", got, want)
		}
	})

	// Three recordings (pascal at widths 4 and 3, exprlang); every
	// other compile hits one of them.
	st := pool.Stats()
	if st.CacheHits != 5 || st.CacheMisses != 3 || st.CacheEntries != 3 {
		t.Errorf("want 5 hits, 3 misses, 3 entries: %+v", st)
	}
}

// TestCacheKeySeparation checks that the content address really
// separates what must be separated: a different source, a different
// decomposition width and a different granularity must each miss (and
// produce their own correct output) rather than replay the wrong
// recording.
func TestCacheKeySeparation(t *testing.T) {
	pool := parallel.NewPool(parallel.PoolOptions{Workers: 4})
	defer pool.Close()
	ctx := context.Background()

	type variant struct {
		name string
		src  string
		opts parallel.Options
	}
	variants := []variant{
		{"tiny/4", workload.Generate(workload.Tiny()), parallel.Options{Fragments: 4}},
		{"tiny/2", workload.Generate(workload.Tiny()), parallel.Options{Fragments: 2}},
		{"tiny/4-gran", workload.Generate(workload.Tiny()), parallel.Options{Fragments: 4, Granularity: 8}},
		{"small/4", workload.Generate(workload.Small()), parallel.Options{Fragments: 4}},
	}
	lang := pascal.MustNew()
	for _, v := range variants {
		job, err := lang.ClusterJob(v.src)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := parallel.Run(job, v.opts) // cache-free reference
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ { // cold, then warm
			res, err := pool.Compile(ctx, job, v.opts)
			if err != nil {
				t.Fatalf("%s round %d: %v", v.name, round, err)
			}
			if res.Program != ref.Program {
				t.Errorf("%s round %d: program differs from cache-free reference", v.name, round)
			}
		}
	}
	st := pool.Stats()
	if st.CacheMisses != int64(len(variants)) || st.CacheHits != int64(len(variants)) {
		t.Errorf("expected %d misses and %d hits, got %+v", len(variants), len(variants), st)
	}
}

// TestCacheNoCacheBypass checks the two opt-outs: Options.NoCache on a
// caching pool, and a pool built with CacheBytes < 0.
func TestCacheNoCacheBypass(t *testing.T) {
	job := pascalJob(t, workload.Tiny())
	opts := parallel.Options{Fragments: 4, NoCache: true}
	ctx := context.Background()

	pool := parallel.NewPool(parallel.PoolOptions{Workers: 2})
	defer pool.Close()
	ref, err := pool.Compile(ctx, job, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Compile(ctx, job, opts); err != nil {
		t.Fatal(err)
	}
	if st := pool.Stats(); st.CacheHits != 0 || st.CacheMisses != 0 || st.CacheEntries != 0 {
		t.Errorf("NoCache jobs touched the cache: %+v", st)
	}

	nocache := parallel.NewPool(parallel.PoolOptions{Workers: 2, CacheBytes: -1})
	defer nocache.Close()
	opts.NoCache = false
	res, err := nocache.Compile(ctx, job, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Program != ref.Program {
		t.Error("cache-disabled pool output differs")
	}
	if st := nocache.Stats(); st.CacheCapBytes != 0 || st.CacheEntries != 0 {
		t.Errorf("disabled cache reports state: %+v", st)
	}
}

// TestCacheEvictionKeepsServing squeezes the cache budget so far that
// every entry is evicted on publish: every compile misses, output
// stays correct, and the eviction counter moves.
func TestCacheEvictionKeepsServing(t *testing.T) {
	pool := parallel.NewPool(parallel.PoolOptions{Workers: 2, CacheBytes: 1})
	defer pool.Close()
	ctx := context.Background()
	job := pascalJob(t, workload.Tiny())
	opts := parallel.Options{Fragments: 4}

	var first string
	for i := 0; i < 3; i++ {
		res, err := pool.Compile(ctx, job, opts)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res.Program
		} else if res.Program != first {
			t.Fatalf("round %d: output changed under eviction pressure", i)
		}
	}
	st := pool.Stats()
	if st.CacheEvicted < 3 || st.CacheHits != 0 || st.CacheEntries != 0 {
		t.Errorf("1-byte cache should evict every publish: %+v", st)
	}
}
