package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestRejectionWording pins the user-facing vocabulary errors: both
// parsers quote the rejected value and the accepted names, so a typo
// in a job spec or header is self-explanatory from the 400 body.
func TestRejectionWording(t *testing.T) {
	_, ts := testServer(t)

	resp, err := http.Post(ts.URL+"/compile", "application/json",
		strings.NewReader(`{"workload":"tiny","plan":"speed"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad plan answered %d, want 400", resp.StatusCode)
	}
	if want := `unknown planner "speed" (want "size" or "cost")`; !strings.Contains(string(body), want) {
		t.Errorf("plan rejection body %q missing %q", body, want)
	}

	req, err := http.NewRequest("POST", ts.URL+"/compile",
		strings.NewReader(`{"workload":"tiny"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Pag-Priority", "urgent")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad priority answered %d, want 400", resp.StatusCode)
	}
	if want := `unknown priority "urgent" (want "high" or "low")`; !strings.Contains(string(body), want) {
		t.Errorf("priority rejection body %q missing %q", body, want)
	}
}

// TestDeepNestingRejected posts the source that used to kill the
// daemon: an assignment 4M parentheses deep, 8 MB, under the body cap.
// The parser's recursion once overflowed the goroutine stack — a fatal
// error no recover catches, taking every in-flight job with it. It must
// be a 422 naming the nesting limit, and the daemon must go on
// compiling.
func TestDeepNestingRejected(t *testing.T) {
	_, ts := testServer(t)

	const depth = 4 << 20
	src := "program p;\nvar x: integer;\nbegin\n  x := " +
		strings.Repeat("(", depth) + "1" + strings.Repeat(")", depth) + "\nend.\n"
	req, err := json.Marshal(map[string]string{"source": src})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/compile?format=asm", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("deep nesting answered %d (%s), want 422", resp.StatusCode, body)
	}
	if want := "pascal: line 4: nesting deeper than"; !strings.Contains(string(body), want) {
		t.Errorf("rejection body %q missing %q", body, want)
	}

	resp, err = http.Post(ts.URL+"/compile?format=asm", "application/json",
		strings.NewReader(`{"workload":"tiny"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "_main:") {
		t.Fatalf("compile after the rejection answered %d: %.200s", resp.StatusCode, body)
	}
}
