package parallel

import (
	"context"
	"crypto/sha256"
	"testing"

	"pag/internal/cas"
	"pag/internal/pascal"
	"pag/internal/workload"
)

// TestDiskBuildFingerprintSeparatesBuilds: two builds sharing one
// cache directory never serve each other's recordings. A pool whose
// build fingerprint differs from the recording pool's misses on disk
// (and does not wipe the directory: a third pool of the first build
// still hits).
func TestDiskBuildFingerprintSeparatesBuilds(t *testing.T) {
	dir := t.TempDir()
	job, err := pascal.MustNew().ClusterJob(workload.Generate(workload.Tiny()))
	if err != nil {
		t.Fatal(err)
	}
	diskHits := func(build byte) int64 {
		t.Helper()
		store, err := cas.Open(cas.Options{Dir: dir, Scope: DiskScope})
		if err != nil {
			t.Fatal(err)
		}
		p := NewPool(PoolOptions{Workers: 2, DiskCache: store})
		p.disk.build = func() [sha256.Size]byte { return [sha256.Size]byte{build} }
		if _, err := p.Compile(context.Background(), job, Options{Fragments: 2}); err != nil {
			t.Fatal(err)
		}
		p.Close()
		return p.Stats().DiskHits
	}
	if n := diskHits(1); n != 0 {
		t.Fatalf("empty directory served %d disk hits", n)
	}
	if n := diskHits(2); n != 0 {
		t.Errorf("another build's recording served %d disk hits", n)
	}
	if n := diskHits(1); n != 1 {
		t.Errorf("the recording build got %d disk hits, want 1", n)
	}
}
