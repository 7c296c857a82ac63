package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pag/internal/workload"
)

func defaults() config {
	return config{machines: 1, modeName: "combined", quiet: true}
}

// TestRejectsBadMachineCount is the regression test for -n validation:
// the flag documents 1..6 but out-of-range values used to be passed
// straight to the simulator.
func TestRejectsBadMachineCount(t *testing.T) {
	for _, n := range []int{0, -3, 7, 100} {
		cfg := defaults()
		cfg.machines = n
		cfg.wl = "tiny"
		if err := run(os.Stdout, cfg, nil); err == nil {
			t.Errorf("-n %d was accepted", n)
		} else if !strings.Contains(err.Error(), "out of range") {
			t.Errorf("-n %d: error %q does not mention the range", n, err)
		}
	}
}

// TestRejectsExtraOperands is the regression test for the silently
// ignored positional arguments: more than one file, or files combined
// with -workload, must be a usage error.
func TestRejectsExtraOperands(t *testing.T) {
	cfg := defaults()
	if err := run(os.Stdout, cfg, []string{"a.pas", "b.pas"}); err == nil {
		t.Error("two file operands were accepted outside -batch")
	}
	cfg.wl = "tiny"
	if err := run(os.Stdout, cfg, []string{"a.pas"}); err == nil {
		t.Error("a file operand alongside -workload was accepted")
	}
}

// TestSingleFileAndBatchAgree compiles the same source once through
// the simulator path and once through the batch pool and checks both
// succeed (byte-level parity of the two runtimes is locked in by the
// internal/parallel tests).
func TestSingleFileAndBatchAgree(t *testing.T) {
	dir := t.TempDir()
	src := workload.Generate(workload.Tiny())
	files := make([]string, 3)
	for i := range files {
		files[i] = filepath.Join(dir, "prog"+string(rune('a'+i))+".pas")
		if err := os.WriteFile(files[i], []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	cfg := defaults()
	cfg.machines = 2
	cfg.quiet = false
	cfg.asm = true
	var single bytes.Buffer
	if err := run(&single, cfg, files[:1]); err != nil {
		t.Fatalf("single-file run: %v", err)
	}
	if !strings.Contains(single.String(), "compiled on 2 machine(s)") {
		t.Errorf("single-file summary missing:\n%s", single.String())
	}

	bcfg := defaults()
	bcfg.batch = true
	bcfg.workers = 2
	bcfg.quiet = false
	bcfg.asm = true
	var batch bytes.Buffer
	if err := run(&batch, bcfg, files); err != nil {
		t.Fatalf("batch run: %v", err)
	}
	out := batch.String()
	if !strings.Contains(out, "batch: 3/3 file(s)") {
		t.Errorf("batch summary missing:\n%s", out)
	}
	for _, f := range files {
		if !strings.Contains(out, "; ==== "+f+" ====") {
			t.Errorf("batch -S output missing assembly for %s", f)
		}
	}

	// Batch failures must be reported, not swallowed.
	bad := filepath.Join(dir, "missing.pas")
	if err := run(os.Stdout, bcfg, []string{files[0], bad}); err == nil {
		t.Error("batch run with a missing file reported success")
	}
}

// TestBatchRejectsSimulatorFlags checks that simulator-only flags are
// refused in batch mode instead of being silently ignored.
func TestBatchRejectsSimulatorFlags(t *testing.T) {
	cfg := defaults()
	cfg.batch = true
	cfg.machines = 2
	if err := run(os.Stdout, cfg, []string{"a.pas"}); err == nil || !strings.Contains(err.Error(), "-workers") {
		t.Errorf("-batch -n 2: err = %v, want a hint to use -workers", err)
	}
	cfg = defaults()
	cfg.batch = true
	cfg.gantt = true
	if err := run(os.Stdout, cfg, []string{"a.pas"}); err == nil || !strings.Contains(err.Error(), "gantt") {
		t.Errorf("-batch -gantt: err = %v, want a gantt rejection", err)
	}
}

// TestWorkersFlagRequiresBatch: -workers must not be silently ignored
// on simulator runs.
func TestWorkersFlagRequiresBatch(t *testing.T) {
	cfg := defaults()
	cfg.workers = 8
	cfg.wl = "tiny"
	if err := run(os.Stdout, cfg, nil); err == nil || !strings.Contains(err.Error(), "-batch") {
		t.Errorf("-workers without -batch: err = %v, want a rejection naming -batch", err)
	}
}

// TestBatchManyFilesNoOverload: a batch larger than the pool's
// default admission bounds must queue, not fail with ErrOverloaded.
func TestBatchManyFilesNoOverload(t *testing.T) {
	dir := t.TempDir()
	src := workload.Generate(workload.Tiny())
	files := make([]string, 80)
	for i := range files {
		files[i] = filepath.Join(dir, fmt.Sprintf("p%02d.pas", i))
		if err := os.WriteFile(files[i], []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cfg := defaults()
	cfg.batch = true
	cfg.workers = 2
	if err := run(os.Stdout, cfg, files); err != nil {
		t.Fatalf("80-file batch on a 2-worker pool: %v", err)
	}
}

// TestCacheBytesFlagRequiresBatch: like -workers, -cache-bytes
// configures the batch pool and must not be silently ignored on
// simulator runs.
func TestCacheBytesFlagRequiresBatch(t *testing.T) {
	cfg := defaults()
	cfg.cacheBytes = 1 << 20
	cfg.wl = "tiny"
	if err := run(os.Stdout, cfg, nil); err == nil || !strings.Contains(err.Error(), "-batch") {
		t.Errorf("-cache-bytes without -batch: err = %v, want a rejection naming -batch", err)
	}
}

// TestBatchIdenticalFilesHitCache compiles the same source many times
// in one batch: the whole-job cache serves the repeats and every
// assembly block must still be identical (with -cache-bytes 0 default
// budget, and with the cache disabled for the cross-check).
func TestBatchIdenticalFilesHitCache(t *testing.T) {
	dir := t.TempDir()
	src := workload.Generate(workload.Tiny())
	files := make([]string, 6)
	for i := range files {
		files[i] = filepath.Join(dir, fmt.Sprintf("same%d.pas", i))
		if err := os.WriteFile(files[i], []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	assemblies := func(cacheBytes int64) []string {
		t.Helper()
		cfg := defaults()
		cfg.batch = true
		cfg.workers = 2
		cfg.asm = true
		cfg.cacheBytes = cacheBytes
		var out bytes.Buffer
		if err := run(&out, cfg, files); err != nil {
			t.Fatal(err)
		}
		blocks := strings.Split(out.String(), "; ==== ")[1:]
		if len(blocks) != len(files) {
			t.Fatalf("got %d assembly blocks, want %d", len(blocks), len(files))
		}
		for i := range blocks {
			if _, rest, ok := strings.Cut(blocks[i], "====\n"); ok {
				blocks[i] = rest
			}
		}
		return blocks
	}
	cached := assemblies(0)
	uncached := assemblies(-1)
	for i := range cached {
		if cached[i] != cached[0] {
			t.Errorf("cached batch: file %d assembly differs from file 0", i)
		}
		if cached[i] != uncached[i] {
			t.Errorf("file %d: cached assembly differs from uncached", i)
		}
	}
}

// TestDumpSource covers -dump-source: it prints exactly the generated
// workload source and rejects conflicting operands.
func TestDumpSource(t *testing.T) {
	cfg := defaults()
	cfg.dump = true
	cfg.wl = "tiny"
	var out bytes.Buffer
	if err := run(&out, cfg, nil); err != nil {
		t.Fatal(err)
	}
	if out.String() != workload.Generate(workload.Tiny()) {
		t.Error("-dump-source output differs from the generated workload")
	}

	if err := run(os.Stdout, defaults(), nil); err == nil {
		t.Error("plain run with no operands was accepted") // sanity: defaults alone error
	}
	cfg2 := defaults()
	cfg2.dump = true
	if err := run(os.Stdout, cfg2, nil); err == nil {
		t.Error("-dump-source without -workload was accepted")
	}
	cfg3 := defaults()
	cfg3.dump = true
	cfg3.wl = "tiny"
	if err := run(os.Stdout, cfg3, []string{"a.pas"}); err == nil {
		t.Error("-dump-source with a file operand was accepted")
	}
}

// TestSimulatorAblationFlags drives the simulator-only ablations end to
// end: the dynamic evaluator and the naive (librarian-free) result
// propagation emit the default assembly, and the unique-identifier
// chain numbers labels the same way on any machine count, because the
// chain does not depend on where the tree is cut.
func TestSimulatorAblationFlags(t *testing.T) {
	asm := func(t *testing.T, set func(*config)) string {
		t.Helper()
		cfg := defaults()
		cfg.asm = true
		cfg.wl = "tiny"
		set(&cfg)
		var out bytes.Buffer
		if err := run(&out, cfg, nil); err != nil {
			t.Fatal(err)
		}
		if out.Len() == 0 {
			t.Fatal("no assembly printed")
		}
		return out.String()
	}
	def := asm(t, func(*config) {})
	if got := asm(t, func(c *config) { c.modeName = "dynamic" }); got != def {
		t.Error("-mode dynamic -S differs from the default assembly")
	}
	if got := asm(t, func(c *config) { c.noLib = true }); got != def {
		t.Error("-nolibrarian -S differs from the default assembly")
	}
	chain1 := asm(t, func(c *config) { c.chain = true })
	if got := asm(t, func(c *config) { c.chain = true; c.machines = 3 }); got != chain1 {
		t.Error("-n 3 -uidchain -S differs from -n 1 -uidchain -S")
	}
}
