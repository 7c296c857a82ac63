package pascal

import (
	"crypto/sha256"
	"strings"
	"testing"
)

// TestSourceKey pins the source key to SHA-256 over the front end's
// name and the source, at lengths around SourceKey's 4 KiB chunks, and
// checks that ClusterJob and SourceJob put it on the job.
func TestSourceKey(t *testing.T) {
	for _, n := range []int{0, 1, 4096 - 11, 4096 - 10, 4096, 3*4096 + 7} {
		src := strings.Repeat("x", n)
		if got, want := SourceKey(src), sha256.Sum256([]byte("pag/pascal\x00"+src)); got != want {
			t.Errorf("%d bytes: key %x, want %x", n, got, want)
		}
	}
	l := MustNew()
	src := "program p;\nbegin\nend.\n"
	job, err := l.ClusterJob(src)
	if err != nil {
		t.Fatal(err)
	}
	if job.Key != SourceKey(src) || l.SourceJob(src).Key != job.Key {
		t.Error("a job does not carry its source key")
	}
	if SourceKey(src) == SourceKey(src+" ") {
		t.Error("two sources share a key")
	}
}
