package buildid

import (
	"crypto/sha256"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestFingerprint: the fingerprint is computed once and is not the
// zero value. On Linux it comes from the Go build ID in the ELF note
// the linker wrote.
func TestFingerprint(t *testing.T) {
	if Fingerprint() != Fingerprint() || Fingerprint() == ([sha256.Size]byte{}) {
		t.Fatal("fingerprint is unstable or zero")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Skip("no executable path:", err)
	}
	if id := Read(exe); runtime.GOOS == "linux" && id == "" {
		t.Errorf("no Go build ID found in %s", exe)
	} else if id != "" && Fingerprint() != sha256.Sum256([]byte(id)) {
		t.Error("fingerprint is not the build ID's digest")
	}
}

// TestReadText finds the build ID the linker writes as text near the
// start of non-ELF executables, and nothing in a file without one.
func TestReadText(t *testing.T) {
	dir := t.TempDir()
	exe := filepath.Join(dir, "exe")
	body := append(make([]byte, 4096), "\xff Go build ID: \"abc/def\"\n \xff"...)
	if err := os.WriteFile(exe, body, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := Read(exe); got != "abc/def" {
		t.Errorf("Read = %q, want abc/def", got)
	}
	if err := os.WriteFile(exe, make([]byte, 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := Read(exe); got != "" {
		t.Errorf("Read of a file without an ID = %q", got)
	}
	if got := Read(filepath.Join(dir, "missing")); got != "" {
		t.Errorf("Read of a missing file = %q", got)
	}
}
