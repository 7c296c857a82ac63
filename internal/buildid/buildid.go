// Package buildid identifies the running build, so that what one build
// writes for itself (the whole-job cache's disk recordings) is never
// read by another. It reads the Go build ID the linker writes into
// every executable, which costs no pass over the file.
package buildid

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"debug/elf"
	"io"
	"os"
	"sync"
)

// Fingerprint returns the SHA-256 of the running executable's Go build
// ID, or, where none can be read, of the executable file. It is
// computed on first use, once per process. A process that cannot read
// its executable gets a random fingerprint, which no other process
// shares.
var Fingerprint = sync.OnceValue(func() (d [sha256.Size]byte) {
	if exe, err := os.Executable(); err == nil {
		if id := Read(exe); id != "" {
			return sha256.Sum256([]byte(id))
		}
		if f, err := os.Open(exe); err == nil {
			defer f.Close()
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				h.Sum(d[:0])
				return d
			}
		}
	}
	rand.Read(d[:]) //nolint:errcheck // crypto/rand.Read never fails (Go 1.24)
	return d
})

// Read returns the Go build ID of the executable at path, or "": from
// the .note.go.buildid note of an ELF file, and otherwise from the
// `\xff Go build ID: "…"` text the linker writes at the start of the
// code, within the first 32 KiB of Mach-O and PE files.
func Read(path string) string {
	if f, err := elf.Open(path); err == nil {
		defer f.Close()
		// One note: name size, descriptor size, type, the name
		// "Go\x00\x00", then the ID.
		if s := f.Section(".note.go.buildid"); s != nil {
			if data, err := s.Data(); err == nil && len(data) >= 16 && string(data[12:16]) == "Go\x00\x00" {
				if n := int(f.ByteOrder.Uint32(data[4:])); n <= len(data)-16 {
					return string(data[16 : 16+n])
				}
			}
		}
		return ""
	}
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	head := make([]byte, 32<<10)
	n, _ := io.ReadFull(f, head)
	_, id, _ := bytes.Cut(head[:n], []byte("\xff Go build ID: \""))
	id, _, ok := bytes.Cut(id, []byte(`"`))
	if !ok {
		return ""
	}
	return string(id)
}
